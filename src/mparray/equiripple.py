"""Equiripple design of symmetric linear-phase excitation prototypes.

A prototype of 2N-1 symmetric taps has the zero-phase amplitude

    A(u) = a_0 + sum_{m=1}^{N-1} a_m cos(m u),

which under x = cos(u) is an algebraic polynomial of degree N-1.  The
weighted Chebyshev problem min max W(u) |A(u) - D(u)| over a union of
closed bands is solved here with a Remez multiple exchange carried out in
x.  Extremum locations are refined off the working grid by parabolic
interpolation, so the returned solution equioscillates to well below the
verification tolerances used downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .spec_model import DEGENERATE_WIDTH

_QUALITY_STOP = 1e-9
_QUALITY_ACCEPT = 1e-6
_DELTA_STALL = 1e-10
_GRID_DENSITY = 16  # working grid points per expected error extremum
_MAX_ITERATIONS = 250


class RemezConvergenceError(RuntimeError):
    """The exchange stalled before reaching an equiripple solution."""

    def __init__(self, message: str, iterations: int, delta: float, quality: float):
        super().__init__(message)
        self.iterations = iterations
        self.delta = delta
        self.quality = quality


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
        if not (0.0 <= self.u_lo < self.u_hi <= math.pi + 1e-9):
            raise ValueError(f"band edges must satisfy 0 <= u_lo < u_hi <= pi, "
                             f"got [{self.u_lo!r}, {self.u_hi!r}]")
        if not self.weight > 0.0:
            raise ValueError(f"band weight must be positive, got {self.weight!r}")

    @property
    def width(self) -> float:
        return self.u_hi - self.u_lo


@dataclass(frozen=True)
class LinearPhasePrototype:
    """Result of an equiripple prototype design.

    Attributes
    ----------
    taps : ndarray
        2*(half_order)+1 symmetric real taps.
    half_order : int
        Degree N-1 of the amplitude polynomial in cos(u).
    bands : tuple of PrototypeBand
        The bands the design was run against, in the order given.
    achieved_delta : ndarray
        Per-band peak weighted error, refined off-grid.
    delta : float
        The equiripple level |delta|.
    iterations : int
        Exchange iterations used; 0 for a closed-form design.
    """

    taps: np.ndarray
    half_order: int
    bands: tuple[PrototypeBand, ...]
    achieved_delta: np.ndarray
    delta: float
    iterations: int = 0


@dataclass(frozen=True)
class ExtremaScan:
    """Refined local extrema of the weighted error over the bands."""

    u: np.ndarray
    error: np.ndarray

    @property
    def count(self) -> int:
        return len(self.u)


def _cosine_coefficients(taps: np.ndarray) -> np.ndarray:
    n = (len(taps) - 1) // 2
    if len(taps) != 2 * n + 1:
        raise ValueError("taps must have odd length")
    scale = max(1.0, float(np.max(np.abs(taps))))
    if np.max(np.abs(taps - taps[::-1])) > 1e-9 * scale:
        raise ValueError("taps must be symmetric")
    a = np.empty(n + 1)
    a[0] = taps[n]
    a[1:] = 2.0 * taps[n + 1:]
    return a


def amplitude_response(prototype, u) -> np.ndarray:
    """Zero-phase amplitude A(u) of a symmetric prototype.

    ``prototype`` may be a LinearPhasePrototype or a bare odd-length
    symmetric tap vector.  The response is real and may be negative.
    """
    taps = prototype.taps if isinstance(prototype, LinearPhasePrototype) else np.asarray(prototype, float)
    a = _cosine_coefficients(taps)
    return _cheb.chebval(np.cos(np.asarray(u, float)), a)


def estimate_order(bands: Sequence[PrototypeBand], delta_pass: float, delta_stop: float) -> int:
    """Heuristic element-count estimate N for a banded target.

    Uses Kaiser's empirical length formula on the narrowest transition
    between bands with different targets.  The value seeds the minimal
    order search and carries no optimality guarantee in either direction.
    """
    if not (delta_pass > 0.0 and delta_stop > 0.0):
        raise ValueError("deltas must be positive")
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
    df = gap / (2.0 * math.pi)
    length = (-20.0 * math.log10(math.sqrt(delta_pass * delta_stop)) - 13.0) / (14.6 * df) + 1.0
    return max(1, int(round((length + 1.0) / 2.0)))


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _bary_eval(nodes, values, weights, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, float))
    d = x - nodes[:, None]
    hit = d == 0.0
    d[hit] = 1.0
    t = weights[:, None] / d
    # accumulate adds the node rows strictly in order, as a loop over the
    # nodes would; sum/reduce switch to pairwise summation on a single
    # point and so change the last bit.
    num = np.add.accumulate(t * values[:, None], axis=0)[-1]
    den = np.add.accumulate(t, axis=0)[-1]
    # den cancels to exactly zero only on a degenerate reference; callers
    # get inf or nan there, which the exchange does not accept.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    k, j = np.nonzero(hit)
    out[j] = values[k]
    return out


def _leveled_delta(x_ext, d_ext, w_ext) -> float:
    g = _bary_weights(x_ext)
    signs = np.where(np.arange(len(x_ext)) % 2 == 0, 1.0, -1.0)
    den = np.sum(g * signs / w_ext)
    return float(np.sum(g * d_ext) / den)


def _extrema_candidates(us, es, err_fn, rounds=2):
    """Local extrema of |e| on one band's grid, with both edges included.

    All interior peaks are refined off-grid together by parabolic
    interpolation: each round makes one ``err_fn`` call on the vertices of
    the live peaks and one on their new brackets.  A peak stops refining
    when its parabola is flat or non-finite, its vertex leaves the band, or
    its bracket collapses.  Band edges are kept where they fall.  Returns
    (u, e) pairs in ascending u.
    """
    if len(us) == 1:
        return [(float(us[0]), float(es[0]))]
    lo, hi = us[0], us[-1]
    mag = np.abs(es)
    i = 1 + np.flatnonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))
    u0, u1, u2 = us[i - 1], us[i], us[i + 1]
    e0, e1, e2 = es[i - 1], es[i], es[i + 1]
    best_u, best_e = u1.copy(), e1.copy()
    live = np.ones(len(i), bool)
    for _ in range(rounds):
        with np.errstate(all="ignore"):
            d1 = (e1 - e0) / (u1 - u0)
            c2 = ((e2 - e1) / (u2 - u1) - d1) / (u2 - u0)
            v = 0.5 * (u0 + u1) - d1 / (2.0 * c2)
        live &= (c2 != 0.0) & np.isfinite(c2) & (lo <= v) & (v <= hi)
        k = np.flatnonzero(live)
        if not len(k):
            break
        ev = err_fn(v[k])
        better = np.abs(ev) > np.abs(best_e[k])
        best_u[k[better]], best_e[k[better]] = v[k[better]], ev[better]
        h = 0.25 * (u2 - u0)
        ul, ur = np.maximum(lo, best_u - h), np.minimum(hi, best_u + h)
        live &= (h > 0.0) & (ul < best_u) & (best_u < ur)
        k = np.flatnonzero(live)
        if not len(k):
            break
        e_lr = err_fn(np.concatenate([ul[k], ur[k]]))
        u0[k], u1[k], u2[k] = ul[k], best_u[k], ur[k]
        e0[k], e1[k], e2[k] = e_lr[:len(k)], best_e[k], e_lr[len(k):]
    return ([(float(lo), float(es[0]))] + list(zip(best_u.tolist(), best_e.tolist()))
            + [(float(hi), float(es[-1]))])


def _alternating_skeleton(cands):
    """Collapse same-signed runs of candidates, keeping the largest of each."""
    out: list[tuple[float, float]] = []
    for u, e in cands:
        if e == 0.0:
            continue
        if out and (e > 0.0) == (out[-1][1] > 0.0):
            if abs(e) > abs(out[-1][1]):
                out[-1] = (u, e)
        else:
            out.append((u, e))
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


def _build_grid(bands, degree):
    total_width = sum(b.width for b in bands)
    target = max(_GRID_DENSITY * (degree + 2), 48)
    parts_u, parts_band = [], []
    for i, b in enumerate(bands):
        npts = max(8, int(round(target * b.width / total_width)) + 1)
        parts_u.append(np.linspace(b.u_lo, b.u_hi, npts))
        parts_band.append(np.full(npts, i))
    return np.concatenate(parts_u), np.concatenate(parts_band).astype(int)


def remez_design(bands: Sequence[PrototypeBand], half_order: int) -> LinearPhasePrototype:
    """Weighted-Chebyshev design of a 2*half_order+1 tap symmetric prototype.

    Parameters
    ----------
    bands : sequence of PrototypeBand
        Sorted, non-overlapping bands.
    half_order : int
        Amplitude polynomial degree; the design has 2*half_order+1 taps.

    Returns
    -------
    LinearPhasePrototype

    Raises
    ------
    ValueError
        On malformed bands, or a working grid too coarse for the requested
        order.
    RemezConvergenceError
        If the exchange stalls away from an equiripple solution.
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

    grid_u, grid_band = _build_grid(bands, half_order)
    grid_x = np.cos(grid_u)
    grid_d = np.array([bands[i].desired for i in grid_band], float)
    grid_w = np.array([bands[i].weight for i in grid_band], float)

    m = half_order + 2
    if len(grid_u) < m:
        raise ValueError(f"grid has {len(grid_u)} points, need at least {m}")

    sel = np.unique(np.round(np.linspace(0, len(grid_u) - 1, m)).astype(int))
    k = 0
    while len(sel) < m:  # collisions only on very coarse grids
        if k not in sel:
            sel = np.sort(np.append(sel, k))
        k += 1
    ext_u = grid_u[sel]
    ext_band = grid_band[sel]

    band_ranges: dict[int, tuple[int, int]] = {}
    for i, bi in enumerate(grid_band):
        lo, _ = band_ranges.get(bi, (i, i))
        band_ranges[bi] = (lo, i)

    def band_of(u: float) -> int:
        for i, b in enumerate(bands):
            if b.u_lo - 1e-12 <= u <= b.u_hi + 1e-12:
                return i
        raise ValueError(f"u = {u} outside every band")

    nodes = values = bweights = None
    delta = 0.0
    prev_delta = None
    prev_set = None
    quality = math.inf
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        x_ext = np.cos(ext_u)
        d_ext = np.array([bands[i].desired for i in ext_band])
        w_ext = np.array([bands[i].weight for i in ext_band])
        delta = _leveled_delta(x_ext, d_ext, w_ext)
        signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        nodes = x_ext[:-1]
        values = d_ext[:-1] - signs[:-1] * delta / w_ext[:-1]
        bweights = _bary_weights(nodes)

        r_grid = _bary_eval(nodes, values, bweights, grid_x)
        e_grid = grid_w * (r_grid - grid_d)
        if not np.all(np.isfinite(e_grid)):
            raise RemezConvergenceError(
                "non-finite error on the working grid", iterations, abs(delta), quality)

        err_scale = max(np.max(np.abs(grid_d * grid_w)), 1.0)
        if np.max(np.abs(e_grid)) <= 1e-13 * err_scale:
            quality = 0.0
            break

        def err_at(u: np.ndarray, bi: int) -> np.ndarray:
            r = _bary_eval(nodes, values, bweights, np.cos(u))
            return bands[bi].weight * (r - bands[bi].desired)

        # rounds=4: the exit test below trusts these peak values, and two
        # parabola rounds undershoot narrow inter-node peaks by ~1e-5
        # relative, stopping the exchange early with excess true ripple.
        cands: list[tuple[float, float]] = []
        for bi in sorted(band_ranges):
            lo, hi = band_ranges[bi]
            cands.extend(_extrema_candidates(
                grid_u[lo:hi + 1], e_grid[lo:hi + 1],
                lambda u, _b=bi: err_at(u, _b), rounds=4))

        skeleton = _alternating_skeleton(cands)
        if len(skeleton) < m:
            raise RemezConvergenceError(
                f"only {len(skeleton)} alternating extrema for {m} required",
                iterations, abs(delta), quality)
        chosen = _trim_to(skeleton, m)
        new_u = np.array([u for u, _ in chosen])
        new_e = np.array([e for _, e in chosen])

        with np.errstate(over="ignore"):  # a vanishing delta reads as inf
            quality = (np.max(np.abs(new_e)) - abs(delta)) / max(abs(delta), 1e-300)
        same_set = prev_set is not None and len(prev_set) == len(new_u) \
            and np.allclose(prev_set, new_u, rtol=0.0, atol=1e-14)
        stalled = prev_delta is not None and \
            abs(abs(delta) - prev_delta) <= _DELTA_STALL * abs(delta)

        ext_u = new_u
        ext_band = np.array([band_of(u) for u in new_u])
        if quality <= _QUALITY_STOP:
            break
        if same_set or stalled:
            if quality <= _QUALITY_ACCEPT:
                break
            raise RemezConvergenceError(
                f"exchange stalled with excess ripple {quality:.3e}",
                iterations, abs(delta), quality)
        prev_delta = abs(delta)
        prev_set = new_u
    else:
        if quality > _QUALITY_ACCEPT:
            raise RemezConvergenceError(
                f"no convergence in {_MAX_ITERATIONS} iterations",
                _MAX_ITERATIONS, abs(delta), quality)

    # Final node set -> amplitude values at Chebyshev abscissae -> taps.
    x_ext = np.cos(ext_u)
    d_ext = np.array([bands[i].desired for i in ext_band])
    w_ext = np.array([bands[i].weight for i in ext_band])
    delta = _leveled_delta(x_ext, d_ext, w_ext)
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    nodes = x_ext[:-1]
    values = d_ext[:-1] - signs[:-1] * delta / w_ext[:-1]
    bweights = _bary_weights(nodes)

    if half_order == 0:
        xc = np.array([1.0])
    else:
        xc = np.cos(np.arange(half_order + 1) * math.pi / half_order)
    a = _cheb.chebfit(xc, _bary_eval(nodes, values, bweights, xc), half_order)

    taps = np.zeros(2 * half_order + 1)
    taps[half_order] = a[0]
    for mm in range(1, half_order + 1):
        taps[half_order + mm] = 0.5 * a[mm]
        taps[half_order - mm] = 0.5 * a[mm]

    achieved = np.array([_band_peak_weighted_error(a, b) for b in bands])

    return LinearPhasePrototype(
        taps=taps, half_order=half_order, bands=bands,
        achieved_delta=achieved, delta=abs(delta), iterations=iterations)


def _band_peak_weighted_error(a_cheb, band: PrototypeBand, points: int = 2048) -> float:
    def err(u):
        return band.weight * (_cheb.chebval(np.cos(u), a_cheb) - band.desired)

    us = np.linspace(band.u_lo, band.u_hi, points)
    es = err(us)
    cands = _extrema_candidates(us, es, err, rounds=3)
    return max(abs(e) for _, e in cands)


def equioscillation_extrema(prototype: LinearPhasePrototype, *, points: int = 2 ** 14) -> ExtremaScan:
    """Refined local extrema of the weighted error across the bands.

    Evaluates the designed amplitude on a dense grid (about ``points``
    samples over the bands), locates every band-interior peak of the
    weighted error, polishes each by parabolic interpolation and returns
    them together with the band edges, in ascending u.
    """
    a = _cosine_coefficients(prototype.taps)
    total_width = sum(b.width for b in prototype.bands)
    out: list[tuple[float, float]] = []
    for b in prototype.bands:
        def err(u, _b=b):
            return _b.weight * (_cheb.chebval(np.cos(u), a) - _b.desired)

        npts = max(64, int(round(points * b.width / total_width)))
        us = np.linspace(b.u_lo, b.u_hi, npts)
        out.extend(_extrema_candidates(us, err(us), err, rounds=3))
    out.sort(key=lambda t: t[0])
    return ExtremaScan(u=np.array([u for u, _ in out]),
                       error=np.array([e for _, e in out]))


def count_alternations(scan: ExtremaScan, level: float, *, rel_tol: float = 1e-6) -> int:
    """Longest alternating run of extrema whose |error| matches ``level``.

    Extrema more than ``rel_tol`` (relative) below ``level`` are ignored;
    the survivors are collapsed to an alternating sign sequence and its
    length returned.  Any survivor exceeding ``level`` by more than
    ``rel_tol`` makes the count 0, since the claimed level is then wrong.
    """
    if level <= 0.0:
        return 0
    keep = [(u, e) for u, e in zip(scan.u, scan.error)
            if abs(e) >= level * (1.0 - rel_tol)]
    if any(abs(e) > level * (1.0 + rel_tol) for _, e in keep):
        return 0
    return len(_alternating_skeleton(keep))
