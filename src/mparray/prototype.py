"""Squared-magnitude mapping, the minimal element-count search, one report path.

The minimum-phase route designs the squared pattern G(u) = |C(u)|^2 as an
equiripple prototype and factors it.  Amplitude bounds on |C| therefore
have to be restated as bounds on G:

  * a stop ceiling delta_s on |C| allows G to swing within +-delta_s^2/2
    about 0, so delta2' = delta_s^2 / 2;
  * a peak-to-peak pass ripple of r dB about the flat top, split evenly in
    dB, means |C| must stay above 10**(-r/40) =: 1 - delta_p, so G may dip
    to (1 - delta_p)^2.  With the stop-band lift folded in, the pass-band
    swing of G about 1 is delta1' = 1 - (1 - delta_p)^2 - 2*delta2'.

The mapping is conservative, so a design meeting the G-plan meets the
original bounds; feasibility of an element count is always judged against
the original bands, never on the plan.  Each trial is judged first on the
exact levels of the lifted prototype G + gamma, which is |C|^2 of its
factor up to the factor's residual; only a trial G + gamma passes is
factored, and the factor's own |C| has the last word.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import (BandLevel, DesignReport, ZERO_RADIUS_TOL, array_factor,
                       pattern_metrics, polynomial_zeros)
from .equiripple import (LinearPhasePrototype, PrototypeBand,
                         RemezConvergenceError, estimate_order, remez_design)
from .spec_model import DesignSpec, db_to_amplitude, validate_spec
from .spectral_factor import (FactorizationError, FactorizationDiagnostics,
                              MinPhaseWeights, autocorrelation,
                              critical_cosines, lifted_symbol,
                              spectral_factorize)


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


# Tolerance walk of one element count (see _attempt).
DELTA_SHRINK = 0.9
MAX_SHRINKS = 5


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

    ``levels`` holds the band levels of the factor's pattern when the trial
    has weights, else those of the lifted prototype G + gamma (which did
    not meet the bands, so the trial was not factored); it is None when
    the exchange or the factorization failed.  ``find_min_order`` sets
    ``report`` on the trial it hands back when that trial has weights.
    """

    order: int
    weights: MinPhaseWeights | None
    diagnostics: FactorizationDiagnostics | None
    prototype: LinearPhasePrototype | None
    levels: tuple[BandLevel, ...] | None
    violations: tuple[str, ...]
    report: DesignReport | None = None

    @property
    def feasible(self) -> bool:
        return not self.violations


def measure(c, spec: DesignSpec) -> tuple[BandLevel, ...]:
    """Exact level and margin of each band of ``spec`` in the pattern of ``c``.

    The pattern is sampled where |C|^2 can take its extremes: at every band
    edge and at u = arccos x for every x of :func:`critical_cosines` of the
    autocorrelation of c (0, pi and the critical points of |C|^2).  A
    spurious point only adds a value |C| does take, so it cannot hide a
    violation.  C is evaluated straight from c, so deep stop-band levels
    keep their relative accuracy.
    """
    r = autocorrelation(c)[len(c) - 1:]
    u = np.concatenate([np.arccos(critical_cosines(r)), _edges(spec)])
    return pattern_metrics(u, array_factor(c, u), spec)


def measure_symbol(taps, spec: DesignSpec) -> tuple[BandLevel, ...]:
    """Exact level and margin of each band of ``spec`` in G + gamma.

    G + gamma, the lifted squared pattern of the prototype ``taps``, is
    |C|^2 of the factor :func:`spectral_factorize` extracts, up to its
    residual.  It is read at the points of :func:`lifted_symbol` and the
    band edges and normalized as :func:`measure` normalizes |C|.
    """
    u, s = lifted_symbol(taps, _edges(spec))
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.maximum(s, 0.0) / s.max())
    return pattern_metrics(u, db, spec)


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

    The bands are measured by :func:`measure`.  The report is feasible
    when no band is violated, and its witness lists the violated
    bands.  ``flattop_ripple_db`` is the pass band's achieved ripple (0.0
    without one) and ``max_sidelobe_db`` the highest stop level (-inf
    without one).  ``spec`` None judges the zeros only, leaves both None
    and needs ``name`` (ValueError without it).  The design is minimum
    phase when no zero lies farther than ZERO_RADIUS_TOL outside the unit
    circle.
    """
    if spec is None and name is None:
        raise ValueError("evaluate needs a name when spec is None")
    return _report(c, spec, () if spec is None else measure(c, spec), name=name)


def _report(c, spec, levels, *, diagnostics=None, witness=None, minimality=None,
            name=None) -> DesignReport:
    """:func:`evaluate`'s report of ``c`` from the band levels ``measure`` gave."""
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
        witness=_unmet(levels) if witness is None else tuple(witness),
        minimality=minimality, zeros=zeros,
        # the factorization fields of the report are those of the diagnostics
        **({} if diagnostics is None else asdict(diagnostics)))


def to_prototype_spec(spec: DesignSpec) -> tuple[PrototypeBand, ...]:
    """Restate amplitude bands as a weighted plan for G = |C|^2.

    The plan is one PrototypeBand per band, sorted by u_lo: the pass band
    with target 1 and weight 1/delta1', each stop band with target 0 and
    weight 1/delta2' of its own ceiling, so a single equiripple level
    targets every tolerance at once.

    Raises
    ------
    InfeasibleSpecError
        If the ripple and sidelobe bounds leave no room for G (delta1'
        <= 0), if there is no stop band, or if the pass band is a single
        point (a pencil beam is designed in closed form by design_pencil,
        not through the squared-magnitude mapping), or if a stop ceiling
        is so low (about -3080 dB) that its weight 1/delta2' overflows.
    """
    spec = validate_spec(spec)
    pass_band = spec.pass_band
    stops = spec.stop_bands
    if pass_band.is_degenerate:
        raise InfeasibleSpecError(
            "degenerate pass band: a pencil beam is designed directly, "
            "see design_pencil")
    if not stops:
        raise InfeasibleSpecError("need at least one stop band to bound sidelobes")
    delta2_each = [0.5 * db_to_amplitude(b.max_level_db) ** 2 for b in stops]
    delta2 = min(delta2_each)
    if not delta2 * sys.float_info.max > 1.0:
        raise InfeasibleSpecError(
            f"stop ceiling {min(b.max_level_db for b in stops)} dB has no finite "
            "squared-pattern weight")
    delta_p = 1.0 - 10.0 ** (-pass_band.ripple_db / 40.0)
    delta1 = 1.0 - (1.0 - delta_p) ** 2 - 2.0 * delta2
    if delta1 <= 0.0:
        raise InfeasibleSpecError(
            f"ripple bound {pass_band.ripple_db} dB leaves no squared-pattern "
            f"tolerance against the stop floor (delta1' = {delta1:.3e})")
    bands = [PrototypeBand(pass_band.u_lo, pass_band.u_hi, 1.0, 1.0 / delta1)]
    for b, d2 in zip(stops, delta2_each):
        bands.append(PrototypeBand(b.u_lo, b.u_hi, 0.0, 1.0 / d2))
    bands.sort(key=lambda b: b.u_lo)
    return tuple(bands)


def design_prototype(plan: tuple[PrototypeBand, ...], order: int,
                     start: tuple[np.ndarray, np.ndarray] | None = None) -> LinearPhasePrototype:
    """Equiripple G design with 2*order-1 taps for an order-N excitation,
    its exchange started from the reference ``start`` (see remez_design)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return remez_design(plan, order - 1, start)


def _tilted(plan: tuple[PrototypeBand, ...], side: str | None,
            scale: float) -> tuple[PrototypeBand, ...]:
    """The plan with only the ``side`` ("pass" or "stop") band weights divided by ``scale``."""
    if side is None:
        return plan
    return tuple(
        replace(b, weight=b.weight / scale) if (b.desired != 0.0) == (side == "pass") else b
        for b in plan)


def _factored(spec: DesignSpec, order: int,
              prototype: LinearPhasePrototype) -> DesignTrial:
    """The trial of ``prototype`` judged by :func:`measure` on its own factor."""
    try:
        weights, diag = spectral_factorize(prototype.taps, newton=True)
    except FactorizationError as err:
        return DesignTrial(order, None, None, prototype, None,
                           (f"factorization failed: {err}",))
    levels = measure(weights.c, spec)
    return DesignTrial(order, weights, diag, prototype, levels, _unmet(levels))


def _attempt(spec: DesignSpec, plan: tuple[PrototypeBand, ...], order: int,
             start: tuple[np.ndarray, np.ndarray] | None = None) -> DesignTrial:
    """Try one element count, walking the one violated tolerance tighter.

    Only the ratio of the pass and stop weights shapes the equiripple
    prototype.  If the first trial violates one side only, that side's
    weight is divided by DELTA_SHRINK**k, k = 1..MAX_SHRINKS.  The walk
    returns the trial in hand once it is feasible, or once going on would
    have no side to tighten or would redesign a ratio already tried:

      * the exchange fails: no pattern names a side (a failed trial; the
        search goes on);
      * the factorization fails: no pattern names a side, and tightening
        both would keep this ratio;
      * both bands fail: tightening both would keep this ratio;
      * the other band fails: tightening it would return to the last ratio.

    Each prototype is judged first on G + gamma (:func:`measure_symbol`),
    whose lift from G's exact minimum covers the stop-band dips and any dip
    in a transition band alike.  A prototype G + gamma passes is factored,
    and its factor's levels (:func:`measure`) give the verdict and the
    side to tighten next.

    The first exchange starts from the reference ``start`` (by default an
    even spread; ``find_min_order`` passes a neighbouring count's final
    reference), and each tilt from the final reference of the design it
    tilts: only the weights change, so its nodes are already close.
    """
    side, scale = None, 1.0
    for _ in range(MAX_SHRINKS + 1):
        try:
            prototype = design_prototype(_tilted(plan, side, scale), order, start)
        except RemezConvergenceError as err:
            return DesignTrial(order, None, None, None, None,
                               (f"exchange failed: {err}",))
        levels = measure_symbol(prototype.taps, spec)
        trial = DesignTrial(order, None, None, prototype, levels, _unmet(levels))
        if trial.feasible:
            trial = _factored(spec, order, prototype)
            if trial.levels is None:
                return trial
        failed = {lv.kind for lv in trial.levels if lv.margin_db < 0.0}
        if len(failed) != 1 or (side is not None and failed != {side}):
            return trial
        side = failed.pop()
        scale *= DELTA_SHRINK
        start = prototype.reference
    return trial


def find_min_order(spec: DesignSpec, limits: SearchLimits | None = None) -> DesignTrial:
    """Smallest element count whose synthesized pattern meets every band.

    Starts from the heuristic estimate, then walks down while feasible or
    up while infeasible.  A count is feasible when its minimum-phase factor
    meets the original bands, and infeasible when G + gamma or the factor
    misses one (see :func:`_attempt`).  Returns the trial at that count
    with its ``report`` set.  The first exchange at a count starts from the final reference of the count one below or above, when
    that count has a prototype, and otherwise from an even spread.  The
    report carries a minimality witness, the failure observed at one
    element fewer, and says what backs the claim: ``"route_only"`` when
    that trial violated a band (this design route cannot meet the bands
    there), ``"unproven"`` when its exchange failed, or its factorization
    after G + gamma met the bands, ``"trivial"`` at one element.

    Raises
    ------
    OrderSearchError
        If no count up to ``limits.max_order`` is feasible; the best
        failing trial is attached, factored first when it was judged on
        G + gamma alone, with its own report when it has weights.
    """
    limits = limits or SearchLimits()
    spec = validate_spec(spec)
    plan = to_prototype_spec(spec)
    guess = min(max(estimate_order(plan), 1), limits.max_order)

    trials: dict[int, DesignTrial] = {}

    def trial(n: int) -> DesignTrial:
        if n not in trials:
            starts = [trials[k].prototype.reference for k in (n - 1, n + 1)
                      if k in trials and trials[k].prototype is not None]
            trials[n] = _attempt(spec, plan, n, starts[0] if starts else None)
        return trials[n]

    def reported(t: DesignTrial, **claim) -> DesignTrial:
        # The trial's levels are measure(t.weights.c, spec) already.
        return replace(t, report=_report(t.weights.c, spec, t.levels,
                                         diagnostics=t.diagnostics, **claim))

    if trial(guess).feasible:
        order = guess
        while order > 1 and trial(order - 1).feasible:
            order -= 1
    else:
        order = guess + 1
        while order <= limits.max_order and not trial(order).feasible:
            order += 1
        if order > limits.max_order:
            best = max(trials.values(),
                       key=lambda t: min((lv.margin_db for lv in t.levels),
                                         default=-math.inf) if t.levels else -math.inf)
            if best.weights is None and best.levels is not None:
                best = _factored(spec, best.order, best.prototype)
            raise OrderSearchError(
                f"no element count up to {limits.max_order} meets the bands",
                best if best.weights is None else reported(best))

    if order == 1:
        return reported(trial(order), witness=(), minimality="trivial")
    below = trial(order - 1)
    return reported(trial(order), witness=below.violations,
                    minimality="route_only" if below.levels is not None else "unproven")
