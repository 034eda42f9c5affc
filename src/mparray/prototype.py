"""Squared-magnitude plan, the minimal element-count search, one report path.

The minimum-phase route designs the squared pattern G(u) = |C(u)|^2 as an
equiripple prototype, lifts it by gamma and factors it, so the judged
pattern is |C|^2 = G + gamma up to the factor's residual.  With the peak
in the pass band, a pass-band swing p of G about 1, a stop-band swing q
about 0 and the lift gamma = (1 + mu) q of the factorization (mu =
GAMMA_MARGIN), the two levels the judge reads, normalized to the peak
1 + p + gamma, meet a ripple bound r = 10**(ripple_dB/10) and a stop
ceiling s = 10**(stop_dB/10) exactly when

    -s p + (2 + mu - s (1 + mu)) q = s,
    (1 + r) p + (1 - r)(1 + mu) q = r - 1.

Their solution (p*, q*) weights the plan, so a count whose G takes its
extremes in the bands meets them exactly when its equiripple level is at
most 1: the plan is exact, not conservative.  Above 1 no prototype of
that count fits the plan, so the exchange's own bracket on the level
rules a count out as soon as it passes 1.  Every other verdict is read
against the original bands, never on the plan: on the exact levels of
the lifted prototype G + gamma.  Only the count the search hands back is
converged and factored, and its factor's own |C| has the last word.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .analysis import (BandLevel, DesignReport, ZERO_RADIUS_TOL, array_factor,
                       pattern_metrics, polynomial_zeros)
from .equiripple import (LinearPhasePrototype, PrototypeBand,
                         RemezConvergenceError, estimate_order, remez_design)
from .spec_model import DesignSpec
from .spectral_factor import (GAMMA_MARGIN, FactorizationError, MinPhaseWeights,
                              autocorrelation, critical_cosines,
                              lifted_symbol, spectral_factorize)


class InfeasibleSpecError(ValueError):
    """The requested bounds cannot be met by this design route."""


class OrderSearchError(RuntimeError):
    """No element count within the search limit satisfied the bands.

    ``best`` is the search's best failing trial.  When it has weights, its
    ``report`` judges them: the witness lists its own unmet bands and
    ``minimality`` is None.
    """

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SearchLimits:
    """Bound of the element-count search; ``max_order`` is the CLI's ``--max-n``."""

    max_order: int = 64

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError(f"max_order must be at least 1, got {self.max_order!r}")


@dataclass(frozen=True)
class DesignTrial:
    """One element count attempted against the original bands.

    ``levels`` holds the band levels of G + gamma, or of the factor's
    pattern once the trial is factored; None when the exchange's level
    ruled the count out (:attr:`bracketed`), or when the exchange or the
    factorization failed.  A factored trial carries its ``weights`` and
    the ``report`` it was judged by (:func:`evaluate`'s, with the
    factorization's fields).
    """

    order: int
    prototype: LinearPhasePrototype | None
    levels: tuple[BandLevel, ...] | None
    violations: tuple[str, ...]
    weights: MinPhaseWeights | None = None
    report: DesignReport | None = None

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def bracketed(self) -> bool:
        """Decided infeasible by the exchange's level alone: a prototype with no taps."""
        return self.prototype is not None and self.prototype.taps is None


def measure(c, spec: DesignSpec) -> tuple[BandLevel, ...]:
    """Exact level and margin of each band of ``spec`` in the pattern of ``c``.

    The pattern is sampled where |C|^2 can take its extremes: at every band
    edge and at u = arccos x for every x of :func:`critical_cosines` of the
    autocorrelation of c (0, pi and the critical points of |C|^2).  For
    complex c, |C| is not even and a cosine keeps no sign, so both +-u are
    sampled: the maximum the levels are read against may lie at u < 0.  A
    spurious point only adds a value |C| does take, so it cannot hide a
    violation.  C is evaluated straight from c, so deep stop-band levels
    keep their relative accuracy.
    """
    r = autocorrelation(c)[len(c) - 1:]
    u = np.arccos(critical_cosines(r))
    u = np.concatenate([u, -u if np.iscomplexobj(c) else [], _edges(spec)])
    return pattern_metrics(u, array_factor(c, u), spec)


def measure_symbol(taps, spec: DesignSpec) -> tuple[BandLevel, ...]:
    """Exact level and margin of each band of ``spec`` in G + gamma.

    G + gamma, the lifted squared pattern of the prototype ``taps``, is
    |C|^2 of the factor :func:`spectral_factorize` extracts, up to its
    residual.  It is read at the points of :func:`lifted_symbol` and the
    band edges and normalized as :func:`measure` normalizes |C|.
    """
    a, x, g, gamma, _ = lifted_symbol(taps)
    edges = _edges(spec)
    s = np.concatenate([g, chebval(np.cos(edges), a)]) + gamma
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(s, 0.0) / s.max())
    return pattern_metrics(np.concatenate([np.arccos(x), edges]), db, spec)


def _edges(spec: DesignSpec) -> list[float]:
    return [u for band in spec.bands for u in (band.u_lo, band.u_hi)]


def _unmet(levels: tuple[BandLevel, ...]) -> tuple[str, ...]:
    """One line per violated band: the witness format of every report."""
    return tuple(
        f"{lv.kind} band [{lv.u_lo:.6g}, {lv.u_hi:.6g}]: achieved "
        f"{lv.achieved_db:.4f} dB vs bound {lv.bound_db:.4f} dB"
        for lv in levels if lv.margin_db < 0.0)


def evaluate(c, spec: DesignSpec | None, *, name: str | None = None) -> DesignReport:
    """Judge excitation ``c`` against ``spec`` and report it: the one report path.

    Every DesignReport starts here; the search only replaces fields on
    it.  :func:`measure` gives the bands; the report is feasible when no
    band is violated, and its witness lists the violated ones.
    ``flattop_ripple_db`` is the pass band's achieved ripple (0.0 without
    one) and ``max_sidelobe_db`` the highest stop level (-inf without
    one).  ``spec`` None judges the zeros only, leaves both None and needs
    ``name`` (ValueError without it).  The design is minimum phase when
    no zero lies farther than ZERO_RADIUS_TOL outside the unit circle.
    """
    if spec is None and name is None:
        raise ValueError("evaluate needs a name when spec is None")
    levels = () if spec is None else measure(c, spec)
    zeros = polynomial_zeros(c)
    radii = np.abs(zeros)
    max_radius = float(radii.max()) if len(radii) else 0.0
    return DesignReport(
        name=name if name is not None else spec.name,
        element_count=len(c),
        feasible=not any(lv.margin_db < 0.0 for lv in levels),
        bands=levels,
        flattop_ripple_db=None if spec is None else next(
            (lv.achieved_db for lv in levels if lv.kind == "pass"), 0.0),
        max_sidelobe_db=None if spec is None else max(
            (lv.achieved_db for lv in levels if lv.kind == "stop"), default=-math.inf),
        zero_count=len(zeros),
        zero_max_radius=max_radius,
        zero_min_radius=float(radii.min()) if len(radii) else 0.0,
        min_phase=max_radius <= 1.0 + ZERO_RADIUS_TOL,
        steering_angle_rad=0.0 if spec is None else spec.steering_angle_rad,
        witness=_unmet(levels), zeros=zeros)


def to_prototype_spec(spec: DesignSpec) -> tuple[PrototypeBand, ...]:
    """Restate amplitude bands as the exact weighted plan for G = |C|^2.

    The plan is one PrototypeBand per band, sorted by u_lo: the pass band
    with target 1 and weight 1/p*, every stop band with target 0 and
    weight 1/q*, (p*, q*) the solution of the module's two equations for
    the ripple bound and the tightest stop ceiling (least s).  One lift
    serves every stop band, so no stop band may swing more than the
    tightest one allows; a single equiripple level then targets every
    tolerance at once.

    Raises
    ------
    InfeasibleSpecError
        If there is no stop band, or if the pass band is a single point
        (a pencil beam is designed in closed form by design_pencil, not
        through the squared-magnitude mapping), or if p* or q* is not
        positive with a finite weight (a stop ceiling of about -3080 dB,
        where 1/q* overflows, or one within 0.002 dB of the peak).
    """
    pass_band = spec.pass_band
    stops = spec.stop_bands
    if pass_band.is_degenerate:
        raise InfeasibleSpecError(
            "degenerate pass band: a pencil beam is designed directly, "
            "see design_pencil")
    if not stops:
        raise InfeasibleSpecError("need at least one stop band to bound sidelobes")
    mu = GAMMA_MARGIN
    w = 10.0 ** (-pass_band.ripple_db / 10.0)  # 1/r: the equations divided by r
    stop_db = min(b.max_level_db for b in stops)
    s = 10.0 ** (stop_db / 10.0)
    den = (1.0 + w) * (2.0 + mu) - 2.0 * s * (1.0 + mu)
    swings = ((1.0 - w) * (2.0 + mu), 2.0 * s)  # den * (p*, q*)
    if not min(swings) * sys.float_info.max > den > 0.0:
        raise InfeasibleSpecError(
            f"stop ceiling {stop_db} dB has no finite positive squared-pattern weight")
    p, q = (x / den for x in swings)
    bands = [PrototypeBand(pass_band.u_lo, pass_band.u_hi, 1.0, 1.0 / p)]
    bands += [PrototypeBand(b.u_lo, b.u_hi, 0.0, 1.0 / q) for b in stops]
    bands.sort(key=lambda b: b.u_lo)
    return tuple(bands)


def design_prototype(plan: tuple[PrototypeBand, ...], order: int,
                     start: tuple[np.ndarray, np.ndarray] | None = None, *,
                     level: float | None = None) -> LinearPhasePrototype:
    """Equiripple G design with 2*order-1 taps for an order-N excitation,
    its exchange started from the reference ``start`` and stopped by the
    decision ``level`` (see remez_design)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return remez_design(plan, order - 1, start, level=level)


def _factored(spec: DesignSpec, order: int,
              prototype: LinearPhasePrototype) -> DesignTrial:
    """The trial of ``prototype`` judged by :func:`evaluate` on its own factor."""
    try:
        weights, diag = spectral_factorize(prototype.taps, newton=True)
    except FactorizationError as err:
        return DesignTrial(order, prototype, None, (f"factorization failed: {err}",))
    report = replace(evaluate(weights.c, spec), **asdict(diag))
    return DesignTrial(order, prototype, report.bands, report.witness, weights, report)


def _attempt(spec: DesignSpec, plan: tuple[PrototypeBand, ...], order: int,
             start: tuple[np.ndarray, np.ndarray] | None = None,
             level: float | None = 1.0) -> DesignTrial:
    """Decide one element count against the original bands.

    One element is judged in closed form: G is the plan's minimax
    constant, whose pattern is flat.  Otherwise the exchange starts from
    the reference ``start`` (by default an even spread; ``find_min_order``
    passes a neighbouring count's last reference, or the count's own to
    resume it) and stops once its bracket decides against ``level`` (1,
    the exact plan's threshold; None converges); its failure fails the
    count.  A reference level above it rules the count out: no prototype
    of that count fits the plan, and the bracket is the trial's witness.
    Any other prototype is judged on G + gamma (:func:`measure_symbol`),
    whose lift from G's exact minimum covers the stop-band dips and any
    dip in a transition band alike.  An early prototype that misses is
    resumed to convergence and judged again, and that verdict stands.
    The trial is not factored.
    """
    if order == 1:
        w_pass = next(b.weight for b in plan if b.desired)
        w_stop = next(b.weight for b in plan if not b.desired)
        prototype = LinearPhasePrototype(np.array([w_pass / (w_pass + w_stop)]),
                                         w_pass * w_stop / (w_pass + w_stop))
    else:
        try:
            prototype = design_prototype(plan, order, start, level=level)
        except RemezConvergenceError as err:
            return DesignTrial(order, None, None, (f"exchange failed: {err}",))
        if prototype.taps is None:
            return DesignTrial(order, prototype, None, (
                f"equiripple level >= {prototype.delta:.4f} > {level:g} on the plan "
                f"(iteration {prototype.iterations})",))
    levels = measure_symbol(prototype.taps, spec)
    if level is not None and order > 1 and _unmet(levels):
        return _attempt(spec, plan, order, prototype.reference, None)
    return DesignTrial(order, prototype, levels, _unmet(levels))


def find_min_order(spec: DesignSpec, limits: SearchLimits | None = None) -> DesignTrial:
    """Smallest element count whose synthesized pattern meets every band.

    Every count is decided by :func:`_attempt`, on its exchange's level or
    on G + gamma: from the heuristic estimate the search walks down while
    a count passes, or up while it does not.  The count the walks end on
    resumes its exchange to convergence and is judged on G + gamma again;
    if it passes, it is factored once, and :func:`evaluate` judges its
    factor.  Should either fail, the search steps up to the next count that
    passes.  Returns the factored trial at that count.  The first exchange
    at a count starts from the last reference of the count one below or
    above, when that count has one, and otherwise from an even spread.
    The trial's report carries a minimality witness, the failure observed
    at one element fewer (one element never passes: its flat pattern
    misses every stop band), and says what backs the claim:
    ``"route_only"`` when that count's level passed 1 or its trial
    violated a band, on G + gamma or its factor (this route cannot meet
    the bands there), ``"unproven"`` when its exchange or factorization
    failed.

    Raises
    ------
    OrderSearchError
        If no count up to ``limits.max_order`` is feasible.  Each count its
        level ruled out is first converged and judged on G + gamma; the
        best failing trial is attached, factored first when it was judged
        on G + gamma alone, with its own report when it has weights.
    """
    limits = limits or SearchLimits()
    plan = to_prototype_spec(spec)
    guess = min(max(estimate_order(plan), 1), limits.max_order)

    trials: dict[int, DesignTrial] = {}

    def trial(n: int) -> DesignTrial:
        if n not in trials:
            starts = [trials[k].prototype.reference for k in (n - 1, n + 1)
                      if k in trials and trials[k].prototype is not None]
            trials[n] = _attempt(spec, plan, n, next(filter(None, starts), None))
        return trials[n]

    def converged(n: int) -> DesignTrial:
        trials[n] = _attempt(spec, plan, n, trials[n].prototype.reference, None)
        return trials[n]

    def factored(n: int) -> DesignTrial:
        trials[n] = _factored(spec, n, trials[n].prototype)
        return trials[n]

    order = guess
    if trial(order).feasible:
        while order > 1 and trial(order - 1).feasible:
            order -= 1
    while order <= limits.max_order and not (trial(order).feasible
                                             and converged(order).feasible
                                             and factored(order).feasible):
        order += 1
    if order > limits.max_order:
        for n in [n for n, t in trials.items() if t.bracketed]:
            converged(n)
        best = max(trials.values(),
                   key=lambda t: min((lv.margin_db for lv in t.levels),
                                     default=-math.inf) if t.levels else -math.inf)
        if best.weights is None and best.levels is not None:
            best = _factored(spec, best.order, best.prototype)
        raise OrderSearchError(
            f"no element count up to {limits.max_order} meets the bands", best)

    won, below = trial(order), trial(order - 1)
    return replace(won, report=replace(
        won.report, witness=below.violations,
        minimality="route_only" if below.levels is not None or below.bracketed
        else "unproven"))
