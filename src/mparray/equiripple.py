"""Equiripple design of symmetric linear-phase excitation prototypes.

A prototype of 2N-1 symmetric taps has the zero-phase amplitude

    A(u) = a_0 + sum_{m=1}^{N-1} a_m cos(m u),

which under x = cos(u) is an algebraic polynomial of degree N-1.  The
weighted Chebyshev problem min max W(u) |A(u) - D(u)| over a union of
closed bands is solved here with a Remez multiple exchange carried out in
x.  W and D are constant on each band, so the weighted error there peaks
only at the band's edges and at the real roots of A'.  Each exchange
iteration takes exactly those points: it expands the current interpolant
as a Chebyshev series on every band's own x-interval and takes the roots
of its derivative on all bands from one stacked eigenvalue problem, the
bands' colleague matrices side by side.  No working grid is sampled, and
the stop rule reads the true peak error.  Every iteration therefore
brackets the minimax error between the level on its reference and its
interpolant's peak error (de la Vallee Poussin), and a caller that only
needs to know on which side of a level the minimax error lies can stop
the exchange as soon as the bracket says.

The first reference is an even spread of nodes over the bands unless the
caller hands in the reference of an exchange on the same bands, as the
order search does from a neighbouring count: it is then scaled band by
band to the new count (reference scaling, Filip, ACM TOMS 43(1), 2016,
section 4), or taken as it is to resume an exchange at its own count.

The interpolant is evaluated in the first (modified-Lagrange) barycentric
form, which has no denominator to cancel and stays backward stable past the
nodes (Higham 2004; Webb, Trefethen & Gonnet 2012), where the final taps
are read when a stop band ends short of pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .spec_model import DEGENERATE_WIDTH, EDGE_SLACK

_QUALITY_STOP = 1e-9
_QUALITY_ACCEPT = 1e-6
_DELTA_STALL = 1e-10
_MAX_ITERATIONS = 250


class RemezConvergenceError(RuntimeError):
    """The exchange stalled before reaching an equiripple solution."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class PrototypeBand:
    """A constant-target band for the Chebyshev approximation.

    ``desired`` is the amplitude target on the band and ``weight`` the
    (positive) error weight.  The band has positive width.
    """

    u_lo: float
    u_hi: float
    desired: float
    weight: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.u_lo < self.u_hi <= math.pi + EDGE_SLACK):
            raise ValueError(f"band edges must satisfy 0 <= u_lo < u_hi <= pi, "
                             f"got [{self.u_lo!r}, {self.u_hi!r}]")
        if not self.weight > 0.0:
            raise ValueError(f"band weight must be positive, got {self.weight!r}")


@dataclass(frozen=True)
class LinearPhasePrototype:
    """Result of an equiripple prototype design.

    Attributes
    ----------
    taps : ndarray or None
        2n+1 symmetric real taps, n the degree of the amplitude polynomial
        in cos(u); None when an exchange with a decision level stopped on
        a reference whose level exceeds it (see remez_design).
    delta : float
        The equiripple level |delta| of the final reference.
    iterations : int
        Exchange iterations used; 0 for a closed-form design.
    reference : (ndarray, ndarray) or None
        The final reference of the exchange: its nodes u, ascending, and
        the index of each node's band.  None for a closed-form design.
    """

    taps: np.ndarray | None
    delta: float
    iterations: int = 0
    reference: tuple[np.ndarray, np.ndarray] | None = None


def estimate_order(bands: Sequence[PrototypeBand]) -> int:
    """Heuristic element-count estimate N for a squared-pattern plan.

    ``bands`` is a plan as ``prototype.to_prototype_spec`` returns it: one
    band with a nonzero target and stop bands with target 0, each weighted
    1/delta.  Uses Kaiser's empirical length formula on the narrowest
    transition between bands with different targets, with delta_pass the
    pass band's tolerance and delta_stop that of the heaviest-weighted
    stop band.  The value seeds the minimal order search and carries no
    optimality guarantee in either direction.
    """
    ordered = sorted(bands, key=lambda b: b.u_lo)
    gap = math.inf
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.desired == nxt.desired:
            continue
        width = nxt.u_lo - prev.u_hi
        if width <= DEGENERATE_WIDTH:
            raise ValueError("bands with different targets touch: "
                             "zero-width transition has no finite-order design")
        gap = min(gap, width)
    if not math.isfinite(gap):
        raise ValueError("no transition between distinct targets to size the design")
    delta_pass = 1.0 / max(b.weight for b in bands if b.desired != 0.0)
    delta_stop = 1.0 / max(b.weight for b in bands if b.desired == 0.0)
    df = gap / (2.0 * math.pi)
    length = (-20.0 * math.log10(math.sqrt(delta_pass * delta_stop)) - 13.0) / (14.6 * df) + 1.0
    return max(1, int(round((length + 1.0) / 2.0)))


def cosine_taps(a) -> np.ndarray:
    """Symmetric taps of A(u) = a_0 + sum_m a_m cos(m u): a_m/2 at offsets +-m."""
    return np.concatenate([0.5 * a[:0:-1], a[:1], 0.5 * a[1:]])


def _bary_weights(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights of ``points`` and of ``points[:-1]``, from one difference matrix."""
    diff = points[:, None] - points
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1), 1.0 / np.prod(diff[:-1, :-1], axis=1)


def _bary_eval(nodes, values, weights, x) -> np.ndarray:
    """First-form interpolant l(x) sum_j w_j f_j / (x - x_j), l = prod_j (x - x_j):
    no denominator can cancel, so it is stable past the nodes as well."""
    x = np.atleast_1d(np.asarray(x, float))
    d = x - nodes[:, None]
    hit = d == 0.0
    d[hit] = 1.0
    t = weights[:, None] / d
    # accumulate adds the node rows strictly in order, as a loop over the
    # nodes would; sum/reduce switch to pairwise summation on a single
    # point and so change the last bit.
    num = np.add.accumulate(t * values[:, None], axis=0)[-1]
    out = num * np.prod(d, axis=0)
    k, j = np.nonzero(hit)
    out[j] = values[k]
    return out


def _leveled_delta(g, d_ext, w_ext) -> tuple[float, float]:
    """The level delta of the m reference nodes whose barycentric weights
    are ``g``, and a bound on the rounding error of the computed delta.

    delta = num / den, num = sum g_j d_j and den = sum s_j g_j / w_j.
    Each g_j carries at most 2m roundings (m-1 differences, m-2 products,
    a reciprocal), each term one more and each sum m-1 more.  The weights
    of descending nodes alternate in sign as s_j does, so the terms of den
    share one sign and only num can cancel:

        |fl(delta) - delta| <= (3m + 1) u (sum |g_j d_j| + |num|) / |den|

    to first order in the unit roundoff u.  The bound returned takes the
    machine epsilon 2u for u, which covers the higher-order terms.
    """
    m = len(g)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    den = np.sum(g * signs / w_ext)
    num = np.sum(g * d_ext)
    scale = (np.sum(np.abs(g * d_ext)) + abs(num)) / abs(den)
    return float(num / den), float((3 * m + 1) * np.finfo(float).eps * scale)


def _alternating_skeleton(cands):
    """Collapse same-signed runs of (u, e, ...) candidates, keeping the largest of each."""
    out = []
    for cand in cands:
        e = cand[1]
        if e == 0.0:
            continue
        if out and (e > 0.0) == (out[-1][1] > 0.0):
            if abs(e) > abs(out[-1][1]):
                out[-1] = cand
        else:
            out.append(cand)
    return out


def _trim_to(cands, m):
    cands = list(cands)
    while len(cands) > m:
        if len(cands) == m + 1:
            if abs(cands[0][1]) < abs(cands[-1][1]):
                cands.pop(0)
            else:
                cands.pop()
        else:
            pair_peak = [max(abs(cands[i][1]), abs(cands[i + 1][1]))
                         for i in range(len(cands) - 1)]
            j = int(np.argmin(pair_peak))
            del cands[j:j + 2]
    return cands


def _chebyshev_points(n: int) -> np.ndarray:
    """The n+1 Chebyshev points cos(k pi / n) of [-1, 1]."""
    return np.cos(np.arange(n + 1) * math.pi / max(n, 1))


def chebder(c: list) -> list:
    """``numpy.polynomial.chebyshev.chebder(c)`` of a series of 2 or more
    Python floats, bit for bit: the same operations in the same order,
    without numpy's array calls per coefficient.  ``c`` is overwritten."""
    n = len(c) - 1
    d = [0.0] * n
    for j in range(n, 2, -1):
        d[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        d[1] = 4 * c[2]
    d[0] = c[1]
    return d


def _derivative_roots(series: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row's derivative, ascending, nan-padded.

    Row i holds ``np.real(chebroots(chebder(series[i])))`` bit for bit,
    the derivatives taken by :func:`chebder` on Python floats.  The
    colleague matrices of all full-degree derivatives, built with
    ``chebcompanion``'s arithmetic and rotation, share one ``eigvals`` call.
    A derivative whose leading coefficient is exactly 0, which ``chebroots``
    trims, goes through ``chebroots`` alone.

    This is the program's one finder of the critical points of a real
    Chebyshev series: the exchange's candidates (:func:`_band_extrema`),
    and, through ``spectral_factor.critical_cosines``, G's minimum for the
    lift, t for the expansion, and the levels both band judges read.
    """
    rows, n = series.shape[0], series.shape[1] - 2
    if n < 1:  # a derivative of degree 0 or less has no roots
        return np.empty((rows, 0))
    der = np.array([chebder(c) for c in series.tolist()])
    out = np.full((rows, n), np.nan)
    full = der[:, -1] != 0.0
    kept = der[full]
    if n == 1:  # chebroots solves a linear series directly
        out[full] = -kept[:, :1] / kept[:, 1:]
    elif len(kept):
        mat = np.zeros((len(kept), n * n))
        mat[:, 1::n + 1] = mat[:, n::n + 1] = [np.sqrt(0.5)] + [0.5] * (n - 2)
        mat = mat.reshape(-1, n, n)
        scl = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
        mat[:, :, -1] -= (kept[:, :-1] / kept[:, -1:]) * (scl / scl[-1]) * 0.5
        out[full] = np.sort(np.linalg.eigvals(mat[:, ::-1, ::-1]).real, axis=1)
    for i in np.flatnonzero(~full):
        r = np.real(_cheb.chebroots(_cheb.chebder(series[i])))
        out[i, :len(r)] = r
    return out


def _band_extrema(amp, band_err, band_lo, band_hi, to_series):
    """Candidate extrema (u, e, band) of the weighted error, in ascending u.

    On band b the weighted error W_b (A - D_b) peaks at the band's edges and
    at the real roots of A' inside it.  ``amp`` evaluates the degree-n
    polynomial A at an array of x = cos(u) and is called once, at the n+1
    Chebyshev points of every band's own x-interval; ``to_series`` turns
    the values there into A's Chebyshev series on each interval.  The roots
    of A' on all bands come from one stacked eigenvalue problem
    (:func:`_derivative_roots`, the solver ``critical_cosines`` takes its
    points from as well).  Like ``critical_cosines`` it takes the real part
    of every root: that of a complex pair is only a spurious candidate,
    which cannot win a same-signed run.  ``band_err(u, band)`` is called
    once, at all candidates.  Returns None when a series is not finite,
    before any root is taken.
    """
    t = _chebyshev_points(len(to_series) - 1)
    x_lo, x_hi = np.cos(band_hi), np.cos(band_lo)
    x_mid, x_half = 0.5 * (x_hi + x_lo), 0.5 * (x_hi - x_lo)
    band_x = x_mid[:, None] + x_half[:, None] * t
    series = amp(band_x.ravel()).reshape(band_x.shape) @ to_series.T
    if not np.all(np.isfinite(series)):
        return None
    r = _derivative_roots(series)
    u = np.arccos(np.clip(x_mid[:, None] + x_half[:, None] * r, -1.0, 1.0))
    inside = (band_lo[:, None] < u) & (u < band_hi[:, None])
    # nan marks no candidate: it sorts last and is dropped with the padding.
    u = np.sort(np.where(inside, u, np.nan), axis=1)
    cand_u = np.concatenate([band_lo[:, None], u, band_hi[:, None]], axis=1)
    keep = ~np.isnan(cand_u)
    cand_band = np.nonzero(keep)[0]
    cand_u = cand_u[keep]
    return cand_u, band_err(cand_u, cand_band), cand_band


def _scaled_reference(start, m: int, band_lo, band_hi):
    """The reference ``start`` = (u, band) mapped to m nodes, band by band.

    Each band keeps its share of the nodes, rounded down; the nodes still
    missing go to the bands with the largest remainders, the first of equal
    ones, so the shares add up to m.  A band that held 2 or more nodes takes
    its new ones by linear interpolation in its own node index, which keeps
    its outermost nodes and their order; a band that held fewer gets evenly
    spread interior points.  The nodes stay strictly increasing and inside
    their bands.  A reference of m nodes is kept as it is, so an exchange
    resumed from its own reference goes on where it stopped.
    """
    u, band = start
    if len(u) == m:
        return start
    old = np.bincount(band, minlength=len(band_lo))
    new, remainder = np.divmod(old * m, len(u))
    new[np.argsort(-remainder, kind="stable")[:m - new.sum()]] += 1
    ext_u = []
    for b, (k_old, k) in enumerate(zip(old.tolist(), new.tolist())):
        if k_old >= 2:
            ext_u.append(np.interp(np.linspace(0.0, k_old - 1, k), np.arange(k_old),
                                   u[band == b]))
        else:
            ext_u.append(band_lo[b] + (band_hi[b] - band_lo[b]) * np.arange(1, k + 1) / (k + 1))
    return np.concatenate(ext_u), np.repeat(np.arange(len(band_lo)), new)


def remez_design(bands: Sequence[PrototypeBand], half_order: int,
                 start: tuple[np.ndarray, np.ndarray] | None = None, *,
                 level: float | None = None) -> LinearPhasePrototype:
    """Weighted-Chebyshev design of a 2*half_order+1 tap symmetric prototype.

    Parameters
    ----------
    bands : sequence of PrototypeBand
        Sorted, non-overlapping bands.
    half_order : int
        Amplitude polynomial degree; the design has 2*half_order+1 taps.
    start : (ndarray, ndarray), optional
        The first reference: the ``reference`` of a design on bands with
        the same edges, for any order, scaled to half_order+2 nodes band by
        band (a design of this order resumes from its reference as it is).
        By default the first reference spreads the nodes evenly over the
        bands' total width.
    level : float, optional
        A decision level for the minimax error.  Every iteration brackets
        it (de la Vallee Poussin): |delta| on the reference <= minimax
        error <= the interpolant's peak weighted error.  With a level, the
        exchange returns as soon as the bracket decides against it: at the
        first reference whose |delta| exceeds the level by more than its
        rounding bound, with no taps, or at the first interpolant whose
        peak error is at most the level, with that interpolant's taps and
        the reference exchanged from it.  None converges.

    Returns
    -------
    LinearPhasePrototype

    Raises
    ------
    ValueError
        On malformed bands or a negative order.
    RemezConvergenceError
        If the interpolant through the reference turns non-finite, fewer
        than half_order+2 extrema alternate, the exchange stalls away from
        an equiripple solution, or the final taps are not finite.
    """
    bands = tuple(bands)
    if not bands:
        raise ValueError("at least one band is required")
    ordered = sorted(bands, key=lambda b: b.u_lo)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.u_lo < prev.u_hi - 1e-12:
            raise ValueError("bands overlap")
    if list(bands) != ordered:
        raise ValueError("bands must be sorted by u_lo")
    if half_order < 0:
        raise ValueError("half_order must be non-negative")

    band_lo = np.array([b.u_lo for b in bands])
    band_hi = np.array([b.u_hi for b in bands])
    band_d = np.array([b.desired for b in bands], float)
    band_w = np.array([b.weight for b in bands], float)
    err_scale = max(np.max(np.abs(band_d * band_w)), 1.0)

    # A degree-n polynomial is fixed by its values at n+1 Chebyshev points,
    # and one inverse Chebyshev-Vandermonde matrix turns those values into
    # its Chebyshev series on whatever x-interval the points were spread over.
    cheb_t = _chebyshev_points(half_order)
    to_series = np.linalg.inv(_cheb.chebvander(cheb_t, half_order))

    m = half_order + 2
    if start is not None:
        ext_u, ext_band = _scaled_reference(start, m, band_lo, band_hi)
    else:  # m points spread evenly over the bands' total width
        offset = np.concatenate([[0.0], np.cumsum(band_hi - band_lo)])
        s = np.linspace(0.0, offset[-1], m)
        ext_band = np.searchsorted(offset[:-1], s, side="right") - 1
        ext_u = np.minimum(band_lo[ext_band] + (s - offset[ext_band]), band_hi[ext_band])
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)

    def reference():
        """Level and barycentric interpolant through the current node set."""
        x_ext = np.cos(ext_u)
        d_ext, w_ext = band_d[ext_band], band_w[ext_band]
        g, bweights = _bary_weights(x_ext)
        delta, slack = _leveled_delta(g, d_ext, w_ext)
        values = d_ext[:-1] - signs[:-1] * delta / w_ext[:-1]
        return delta, slack, x_ext[:-1], values, bweights

    def taps(nodes, values, bweights):
        """The interpolant's values at the Chebyshev points of [-1, 1] -> taps."""
        a = to_series @ _bary_eval(nodes, values, bweights, cheb_t)
        if not np.all(np.isfinite(a)):
            raise RemezConvergenceError("non-finite taps", iterations)
        return cosine_taps(a)

    prev_delta = None

    for iterations in range(1, _MAX_ITERATIONS + 1):
        delta, slack, nodes, values, bweights = reference()
        if level is not None and abs(delta) - slack > level:
            return LinearPhasePrototype(taps=None, delta=abs(delta), iterations=iterations,
                                        reference=(ext_u, ext_band))

        def amp(x):
            return _bary_eval(nodes, values, bweights, x)

        def band_err(u, band):
            return band_w[band] * (amp(np.cos(u)) - band_d[band])

        found = _band_extrema(amp, band_err, band_lo, band_hi, to_series)
        if found is None:
            raise RemezConvergenceError("non-finite interpolant", iterations)
        cand_u, cand_e, cand_band = found
        peak = np.max(np.abs(cand_e))
        if peak <= 1e-13 * err_scale:
            break

        cands = zip(cand_u.tolist(), cand_e.tolist(), cand_band.tolist())
        skeleton = _alternating_skeleton(cands)
        if len(skeleton) < m:
            raise RemezConvergenceError(
                f"only {len(skeleton)} alternating extrema for {m} required", iterations)
        # Each node keeps the band its error was measured in: at an edge
        # two bands share, that band's weight is the one that levels it.
        new_u, new_e, new_band = (np.array(col) for col in zip(*_trim_to(skeleton, m)))

        with np.errstate(over="ignore"):  # a vanishing delta reads as inf
            quality = (np.max(np.abs(new_e)) - abs(delta)) / max(abs(delta), 1e-300)
        stalled = prev_delta is not None and \
            abs(abs(delta) - prev_delta) <= _DELTA_STALL * abs(delta)

        ext_u, ext_band = new_u, new_band
        if level is not None and peak <= level:
            return LinearPhasePrototype(taps=taps(nodes, values, bweights), delta=abs(delta),
                                        iterations=iterations, reference=(ext_u, ext_band))
        if quality <= _QUALITY_STOP:
            break
        if stalled or iterations == _MAX_ITERATIONS:
            if quality <= _QUALITY_ACCEPT:  # a nan error reads as unconverged
                break
            raise RemezConvergenceError(
                f"exchange stalled with excess ripple {quality:.3e}" if stalled
                else f"no convergence in {_MAX_ITERATIONS} iterations", iterations)
        prev_delta = abs(delta)

    delta, _, nodes, values, bweights = reference()  # the final node set
    return LinearPhasePrototype(taps=taps(nodes, values, bweights), delta=abs(delta),
                                iterations=iterations, reference=(ext_u, ext_band))
