"""Dense equioscillation checks of symmetric prototypes.

These evaluate a designed prototype independently of the exchange that
made it: the amplitude is summed from the taps' cosine coefficients, and
its weighted error is scanned on a grid far denser than the exchange's,
with every band-interior peak polished by the exchange's own extremum
finder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from mparray import LinearPhasePrototype
from mparray.equiripple import _alternating_skeleton, _extrema_candidates


@dataclass(frozen=True)
class ExtremaScan:
    """Refined local extrema of the weighted error, with each one's band index."""

    u: np.ndarray
    error: np.ndarray
    band: np.ndarray

    def band_peaks(self) -> np.ndarray:
        """Peak |weighted error| of each band."""
        return np.array([np.max(np.abs(self.error[self.band == b]))
                         for b in range(int(self.band.max()) + 1)])


def cosine_coefficients(taps: np.ndarray) -> np.ndarray:
    """Coefficients a of A(u) = a_0 + sum_m a_m cos(m u) for odd symmetric taps."""
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
    """Zero-phase amplitude A(u) of a LinearPhasePrototype or bare symmetric taps."""
    taps = prototype.taps if isinstance(prototype, LinearPhasePrototype) else np.asarray(prototype, float)
    return cheb.chebval(np.cos(np.asarray(u, float)), cosine_coefficients(taps))


def equioscillation_extrema(prototype: LinearPhasePrototype, *, points: int = 2 ** 14) -> ExtremaScan:
    """Refined local extrema of the weighted error across the bands.

    Evaluates the designed amplitude on a dense grid (about ``points``
    samples over the bands), locates every band-interior peak of the
    weighted error, polishes all of them in one pass of the exchange's
    finder and returns them together with the band edges, in ascending u.
    """
    a = cosine_coefficients(prototype.taps)
    bands = prototype.bands
    total_width = sum(b.width for b in bands)
    grids = [np.linspace(b.u_lo, b.u_hi, max(64, int(round(points * b.width / total_width))))
             for b in bands]
    counts = [len(g) for g in grids]
    weight = np.array([b.weight for b in bands])
    desired = np.array([b.desired for b in bands])

    def err(u, bi):
        return weight[bi] * (cheb.chebval(np.cos(u), a) - desired[bi])

    us = np.concatenate(grids)
    es = err(us, np.repeat(np.arange(len(bands)), counts))
    cands = _extrema_candidates(us, es, counts, err, rounds=3)
    u, e, b = (np.array(col) for col in zip(*cands))
    order = np.argsort(u, kind="stable")
    return ExtremaScan(u=u[order], error=e[order], band=b[order])


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
