"""Equiripple design of symmetric linear-phase excitation prototypes.

A prototype of 2N-1 symmetric taps has the zero-phase amplitude

    A(u) = a_0 + sum_{m=1}^{N-1} a_m cos(m u),

which under x = cos(u) is an algebraic polynomial of degree N-1.  The
weighted Chebyshev problem min max W(u) |A(u) - D(u)| over a union of
closed bands is solved here with a Remez multiple exchange carried out in
x.  Each exchange iteration makes one extremum pass over all bands: the
peaks of every band are refined off the working grid together by parabolic
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
    delta : float
        The equiripple level |delta|.
    iterations : int
        Exchange iterations used; 0 for a closed-form design.
    """

    taps: np.ndarray
    half_order: int
    bands: tuple[PrototypeBand, ...]
    delta: float
    iterations: int = 0


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


def cosine_taps(a) -> np.ndarray:
    """Symmetric taps of A(u) = a_0 + sum_m a_m cos(m u): a_m/2 at offsets +-m."""
    return np.concatenate([0.5 * a[:0:-1], a[:1], 0.5 * a[1:]])


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


def _extrema_candidates(us, es, counts, err_fn, rounds=2):
    """Local extrema of |e| on every band's grid, with each band's edges included.

    ``us`` and ``es`` are the bands' grids concatenated in band order, band
    b taking the next ``counts[b]`` points.  A peak is interior to its band,
    so no comparison crosses a band boundary.  One pass refines the peaks of all bands
    together by parabolic interpolation: each round makes one
    ``err_fn(u, band)`` call on the vertices of the live peaks and one on
    their new brackets, ``band`` giving each point's band index.  A peak
    stops refining when its parabola is flat or non-finite, its vertex
    leaves its band, or its bracket collapses.  Band edges are kept where
    they fall.  Returns (u, e, band) triples in grid order.
    """
    counts = np.asarray(counts)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    band = np.repeat(np.arange(len(counts)), counts)
    mag = np.abs(es)
    inner = np.ones(len(us), bool)
    inner[first] = inner[last] = False
    i = 1 + np.flatnonzero(inner[1:-1] & (mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))
    bi = band[i]
    lo, hi = us[first[bi]], us[last[bi]]
    u0, u1, u2 = us[i - 1], us[i], us[i + 1]
    e0, e1, e2 = es[i - 1], es[i], es[i + 1]
    best_u, best_e = u1.copy(), e1.copy()
    live = np.ones(len(i), bool)
    with np.errstate(all="ignore"):
        for _ in range(rounds):
            d1 = (e1 - e0) / (u1 - u0)
            c2 = ((e2 - e1) / (u2 - u1) - d1) / (u2 - u0)
            v = 0.5 * (u0 + u1) - d1 / (2.0 * c2)
            live &= (c2 != 0.0) & np.isfinite(c2) & (lo <= v) & (v <= hi)
            k = np.flatnonzero(live)
            if not len(k):
                break
            ev = err_fn(v[k], bi[k])
            better = np.abs(ev) > np.abs(best_e[k])
            best_u[k[better]], best_e[k[better]] = v[k[better]], ev[better]
            h = 0.25 * (u2 - u0)
            ul, ur = np.maximum(lo, best_u - h), np.minimum(hi, best_u + h)
            live &= (h > 0.0) & (ul < best_u) & (best_u < ur)
            k = np.flatnonzero(live)
            if not len(k):
                break
            e_lr = err_fn(np.concatenate([ul[k], ur[k]]), np.tile(bi[k], 2))
            u0[k], u1[k], u2[k] = ul[k], best_u[k], ur[k]
            e0[k], e1[k], e2[k] = e_lr[:len(k)], best_e[k], e_lr[len(k):]
    out_u, out_e = us.copy(), es.copy()
    out_u[i], out_e[i] = best_u, best_e
    keep = np.union1d(np.union1d(first, last), i)
    return list(zip(out_u[keep].tolist(), out_e[keep].tolist(), band[keep].tolist()))


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


def _build_grid(bands, degree):
    """Concatenated band grids and the number of points of each band."""
    total_width = sum(b.width for b in bands)
    target = max(_GRID_DENSITY * (degree + 2), 48)
    counts = [max(8, int(round(target * b.width / total_width)) + 1) for b in bands]
    return np.concatenate([np.linspace(b.u_lo, b.u_hi, n) for b, n in zip(bands, counts)]), counts


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

    grid_u, counts = _build_grid(bands, half_order)
    grid_band = np.repeat(np.arange(len(bands)), counts)
    grid_x = np.cos(grid_u)
    band_d = np.array([b.desired for b in bands], float)
    band_w = np.array([b.weight for b in bands], float)
    grid_d, grid_w = band_d[grid_band], band_w[grid_band]

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
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)

    def reference():
        """Level and barycentric interpolant through the current node set."""
        x_ext = np.cos(ext_u)
        d_ext, w_ext = band_d[ext_band], band_w[ext_band]
        delta = _leveled_delta(x_ext, d_ext, w_ext)
        nodes = x_ext[:-1]
        values = d_ext[:-1] - signs[:-1] * delta / w_ext[:-1]
        return delta, nodes, values, _bary_weights(nodes)

    delta = 0.0
    prev_delta = None
    prev_set = None
    quality = math.inf
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        delta, nodes, values, bweights = reference()
        r_grid = _bary_eval(nodes, values, bweights, grid_x)
        e_grid = grid_w * (r_grid - grid_d)
        if not np.all(np.isfinite(e_grid)):
            raise RemezConvergenceError(
                "non-finite error on the working grid", iterations, abs(delta), quality)

        err_scale = max(np.max(np.abs(grid_d * grid_w)), 1.0)
        if np.max(np.abs(e_grid)) <= 1e-13 * err_scale:
            quality = 0.0
            break

        def err_at(u: np.ndarray, bi: np.ndarray) -> np.ndarray:
            r = _bary_eval(nodes, values, bweights, np.cos(u))
            return band_w[bi] * (r - band_d[bi])

        # rounds=4: the exit test below trusts these peak values, and two
        # parabola rounds undershoot narrow inter-node peaks by ~1e-5
        # relative, stopping the exchange early with excess true ripple.
        cands = _extrema_candidates(grid_u, e_grid, counts, err_at, rounds=4)
        skeleton = _alternating_skeleton(cands)
        if len(skeleton) < m:
            raise RemezConvergenceError(
                f"only {len(skeleton)} alternating extrema for {m} required",
                iterations, abs(delta), quality)
        # Each node keeps the band its error was measured in: at an edge
        # two bands share, that band's weight is the one that levels it.
        new_u, new_e, new_band = (np.array(col) for col in zip(*_trim_to(skeleton, m)))

        with np.errstate(over="ignore"):  # a vanishing delta reads as inf
            quality = (np.max(np.abs(new_e)) - abs(delta)) / max(abs(delta), 1e-300)
        same_set = prev_set is not None and np.max(np.abs(prev_set - new_u)) <= 1e-14
        stalled = prev_delta is not None and \
            abs(abs(delta) - prev_delta) <= _DELTA_STALL * abs(delta)

        ext_u, ext_band = new_u, new_band
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
    delta, nodes, values, bweights = reference()
    if half_order == 0:
        xc = np.array([1.0])
    else:
        xc = np.cos(np.arange(half_order + 1) * math.pi / half_order)
    a = _cheb.chebfit(xc, _bary_eval(nodes, values, bweights, xc), half_order)
    return LinearPhasePrototype(taps=cosine_taps(a), half_order=half_order, bands=bands,
                                delta=abs(delta), iterations=iterations)
