"""Dense equioscillation checks of symmetric prototypes.

These evaluate a designed prototype independently of the exchange that
made it: the amplitude is summed from the taps' cosine coefficients, and
its weighted error is scanned on a dense grid, and every band-interior
peak of the scan is polished by a bounded scalar maximization of its own.
Nothing here reuses the exchange's extremum step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
from scipy.optimize import minimize_scalar

from mparray.equiripple import LinearPhasePrototype, _alternating_skeleton


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


def equioscillation_extrema(prototype: LinearPhasePrototype, bands, *,
                            points: int = 2 ** 14) -> ExtremaScan:
    """Refined local extrema of the weighted error across ``bands``.

    ``bands`` are the PrototypeBands the prototype was designed against.
    Evaluates the designed amplitude on a dense grid (about ``points``
    samples over the bands), locates every band-interior peak of |weighted
    error|, maximizes |error| between each peak's grid neighbours with a
    bounded Brent search and returns the peaks together with the band
    edges, in ascending u.
    """
    a = cosine_coefficients(prototype.taps)
    total_width = sum(b.u_hi - b.u_lo for b in bands)
    u, e, band = [], [], []
    for bi, b in enumerate(bands):
        def err(x, b=b):
            return b.weight * (cheb.chebval(np.cos(x), a) - b.desired)

        width = b.u_hi - b.u_lo
        grid = np.linspace(b.u_lo, b.u_hi, max(64, int(round(points * width / total_width))))
        mag = np.abs(err(grid))
        peaks = 1 + np.flatnonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:]))
        band_u = [grid[0], grid[-1]]
        for i in peaks:
            best = minimize_scalar(lambda x: -abs(err(x)), bounds=(grid[i - 1], grid[i + 1]),
                                   method="bounded", options={"xatol": 1e-12})
            band_u.append(best.x if -best.fun > mag[i] else grid[i])
        band_u = np.sort(band_u)
        u.append(band_u)
        e.append(err(band_u))
        band.append(np.full(len(band_u), bi))
    u, e, band = (np.concatenate(col) for col in (u, e, band))
    order = np.argsort(u, kind="stable")
    return ExtremaScan(u=u[order], error=e[order], band=band[order])


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
