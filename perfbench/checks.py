"""Independent checks of the program's outputs.

Nothing here calls mparray: patterns, zeros and residuals are recomputed
with numpy alone, so a defect in the program's own evaluation path cannot
vouch for itself.
"""
from __future__ import annotations

import math

import numpy as np

from inputs import symbol

# Grid of the independent pattern check: four times the program's default
# 8192 points over [0, pi], plus the exact band edges.  Sampling moves a
# peak by well under 1e-3 dB for up to 32 elements, hence the tolerance.
CHECK_GRID = 4 * 8192
BAND_TOL_DB = 1e-2
RADIUS_TOL = 1e-6
RESIDUAL_REL_TOL = 1e-8
ORACLE_RAW_TOL = 1e-6
ORACLE_NEWTON_TOL = 1e-12


def pattern_db(c, u) -> np.ndarray:
    """20 log10 |sum_k c_k e^{iku}|, normalized to a 0 dB peak over ``u``."""
    mag = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * np.asarray(u)), np.asarray(c)))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag / mag.max())


def _band_levels(c, bands):
    """Pattern of ``c`` in dB on the check grid, and the samples inside each band."""
    edges = [b[k] for b in bands for k in ("u_lo", "u_hi")]
    u = np.unique(np.concatenate([np.linspace(0.0, math.pi, CHECK_GRID), edges]))
    db = pattern_db(c, u)
    return [(b, db[(u >= b["u_lo"] - 1e-9) & (u <= b["u_hi"] + 1e-9)]) for b in bands]


def band_shortfalls(c, bands) -> list[str]:
    """Bands whose bound the pattern of ``c`` misses by more than BAND_TOL_DB.

    ``bands`` are request dicts (``u_lo``, ``u_hi``, ``kind`` and
    ``ripple_db`` or ``max_level_db``); a zero-width pass band has no
    ripple to check.
    """
    short = []
    for b, inside in _band_levels(c, bands):
        if b["kind"] == "stop":
            achieved, bound = float(inside.max()), b["max_level_db"]
        elif b["u_hi"] > b["u_lo"]:
            achieved, bound = float(inside.max() - inside.min()), b["ripple_db"]
        else:
            continue
        if achieved > bound + BAND_TOL_DB:
            short.append(f"{b['kind']} [{b['u_lo']:.4f}, {b['u_hi']:.4f}]: "
                         f"{achieved:.4f} dB vs {bound:.4f} dB")
    return short


def max_sidelobe_db(c, bands) -> float:
    """Peak level over the stop bands, on the same grid as band_shortfalls."""
    return max(float(inside.max()) for b, inside in _band_levels(c, bands)
               if b["kind"] == "stop")


def zero_radii(c) -> np.ndarray:
    """Radii of the zeros of c_0 z^{N-1} + ... + c_{N-1}, leading zeros stripped."""
    c = np.atleast_1d(np.asarray(c))
    nz = np.flatnonzero(c)
    if len(nz) == 0:
        return np.zeros(0)
    return np.abs(np.roots(c[nz[0]:]))


def is_min_phase(c) -> bool:
    radii = zero_radii(c)
    return bool(len(radii) == 0 or radii.max() <= 1.0 + RADIUS_TOL)


def residual(c, taps, gamma: float) -> float:
    """max |autocorrelation(c) - taps - gamma e_0|."""
    taps = np.asarray(taps, float)
    r = np.correlate(c, c, mode="full") - taps
    r[(len(taps) - 1) // 2] -= gamma
    return float(np.max(np.abs(r)))


def lift_needed(taps) -> float:
    """Smallest diagonal lift making G + gamma nonnegative: max(0, -min G)."""
    return max(0.0, -float(symbol(taps).min()))
