"""Pattern evaluation and verification for synthesized excitations.

The array factor of an excitation c of length N is

    C(u) = sum_{k=0}^{N-1} c_k exp(j k u),

and its zeros are the roots of the degree N-1 polynomial with c_0 as the
leading coefficient (the roots of C written in powers of exp(-ju)).  An
excitation is minimum phase when every zero lies inside or on the unit
circle, which is equivalent to its partial energy sums dominating those
of every other excitation with the same pattern magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np

from .spec_model import EDGE_SLACK, DesignSpec

ZERO_RADIUS_TOL = 1e-6
ALLPASS_MAX_ORDER = 12


@dataclass(frozen=True)
class BandLevel:
    """Measured level of one band against its bound.

    ``achieved_db`` is the peak level for a stop band and, for a pass band
    (which must hold the maximum), its depth below the maximum; ``margin_db``
    is bound - achieved, so a non-negative margin means the band is met.
    """

    kind: str
    u_lo: float
    u_hi: float
    bound_db: float | None
    achieved_db: float
    margin_db: float


@dataclass(frozen=True)
class DesignReport:
    """Everything a design run asserts about its output, built by ``evaluate``.

    ``zeros``, the zeros the verdict was taken on (sorted by real, then
    imaginary part), is not serialized.
    """

    name: str
    element_count: int
    feasible: bool
    bands: tuple[BandLevel, ...]
    flattop_ripple_db: float
    max_sidelobe_db: float
    zero_count: int
    zero_max_radius: float
    zero_min_radius: float
    min_phase: bool
    steering_angle_rad: float = 0.0
    gamma: float | None = None
    symbol_min: float | None = None
    autocorr_residual: float | None = None
    expansion: int | None = None
    refined: bool | None = None
    witness: tuple[str, ...] = ()
    minimality: str | None = None
    zeros: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The ``report.json`` payload: every field but ``zeros``.

        Every ``*_db`` value is rounded to 4 decimals (None when not
        finite), band edges are floats and ``witness`` is a list.
        """
        return {f.name: _json_value(f.name, getattr(self, f.name))
                for f in fields(self) if f.name != "zeros"}


def _json_value(key: str, value):
    if key.endswith("_db"):
        return None if value is None or not math.isfinite(value) else round(float(value), 4)
    if key in ("u_lo", "u_hi"):
        return float(value)
    if key == "bands":
        return [{f.name: _json_value(f.name, getattr(b, f.name)) for f in fields(b)}
                for b in value]
    return list(value) if key == "witness" else value


def array_factor(c, u) -> np.ndarray:
    """|C(u)| in dB at the points u, normalized so the largest sample is 0 dB.

    C is read straight from c by Horner's rule in z = exp(ju): one complex
    exponential per point and N - 1 multiply-adds over the points, so the
    cost is O(len(u) N) with O(len(u)) memory.  A true pattern null maps
    to -inf.
    """
    c = np.asarray(c)
    u = np.asarray(u, float)
    z = np.exp(1j * u)
    values = np.full(u.shape, c[-1], complex)
    for ck in c[-2::-1].tolist():
        values *= z
        values += ck
    mag = np.abs(values)
    peak = mag.max() if len(mag) else 0.0
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
        if peak > 0.0:
            db -= 20.0 * np.log10(peak)
    return db


def pattern_metrics(u, db, spec: DesignSpec) -> tuple[BandLevel, ...]:
    """Achieved level and margin of each band of ``spec``, in its order.

    ``db`` is the pattern at the points ``u``, as :func:`array_factor`
    returns it.  Each band is judged on the samples inside it, relative to
    the largest sample, 0 dB, which the pass band must hold: its ripple is
    its depth below 0 dB.  The levels are exact when the samples hold every
    band edge, 0, pi and every critical point of |C|^2: the points of
    ``prototype.measure``.  A spurious extra sample is harmless, since it
    is a value |C| does take.
    """
    levels = []
    for band in spec.bands:
        inside = db[(u >= band.u_lo - EDGE_SLACK) & (u <= band.u_hi + EDGE_SLACK)]
        if band.kind == "stop":
            achieved = float(inside.max())
            bound = band.max_level_db
        else:
            achieved = float(0.0 - inside.min()) if not band.is_degenerate else 0.0
            bound = band.ripple_db
        margin = math.inf if bound is None else float(bound - achieved)
        levels.append(BandLevel(kind=band.kind, u_lo=band.u_lo, u_hi=band.u_hi,
                                bound_db=bound, achieved_db=achieved, margin_db=margin))
    return tuple(levels)


def polynomial_zeros(c) -> np.ndarray:
    """Pattern zeros via companion-matrix eigenvalues plus Newton polish.

    Exact leading zero coefficients are stripped first; each root gets up
    to two Newton corrections, kept only while they shrink |p(z)|, all
    roots at once: a root stops at p'(z) = 0 or at its first correction
    that does not shrink |p(z)|.  The zeros come back sorted by (real,
    imag) for reproducibility, and the array is empty when at most one
    coefficient is left after stripping.
    """
    coeffs = np.atleast_1d(np.asarray(c))
    lead = 0
    while lead < len(coeffs) and coeffs[lead] == 0.0:
        lead += 1
    coeffs = coeffs[lead:]
    if len(coeffs) <= 1:
        return np.zeros(0, complex)
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    active = np.arange(len(roots))
    for _ in range(2):
        z = roots[active]
        pz = np.polyval(coeffs, z)
        dz = np.polyval(deriv, z)
        moves = dz != 0.0
        z_new = z - pz / np.where(moves, dz, 1.0)
        moves &= np.abs(np.polyval(coeffs, z_new)) < np.abs(pz)
        active = active[moves]
        roots[active] = z_new[moves]
    return roots[np.lexsort((roots.imag, roots.real))]


def partial_energy_profile(c) -> np.ndarray:
    """Cumulative energy sums: out[k] = sum_{i<=k} |c_i|^2."""
    c = np.asarray(c)
    return np.cumsum(np.abs(c) ** 2)


def allpass_variants(c) -> list[np.ndarray]:
    """Every excitation sharing |C(u)| with c, by reflecting interior zeros.

    Each strictly interior zero may be replaced by its conjugate
    reciprocal without changing the pattern magnitude (after an energy
    rescale); zeros on the unit circle (within ZERO_RADIUS_TOL) are never
    reflected.  Returns one vector per subset of the interior zeros, the
    empty subset first, each scaled to the energy of c and with a positive
    real leading entry.
    """
    c = np.asarray(c)
    if len(c) > ALLPASS_MAX_ORDER:
        raise ValueError(f"variant enumeration capped at {ALLPASS_MAX_ORDER} elements, "
                         f"got {len(c)}")
    zeros = polynomial_zeros(c)
    interior = [i for i, z in enumerate(zeros) if abs(z) < 1.0 - ZERO_RADIUS_TOL]
    energy = float(np.sum(np.abs(c) ** 2))
    out = []
    for r in range(len(interior) + 1):
        for subset in combinations(interior, r):
            zv = zeros.copy()
            for i in subset:
                zv[i] = 1.0 / np.conj(zv[i])
            coeffs = np.poly(zv)
            if np.max(np.abs(coeffs.imag)) <= 1e-9 * np.max(np.abs(coeffs.real)):
                coeffs = coeffs.real
            coeffs = coeffs * math.sqrt(energy / float(np.sum(np.abs(coeffs) ** 2)))
            out.append(coeffs)
    return out


def apply_steering(c, u0: float) -> np.ndarray:
    """Steer the pattern peak to u0: c_k -> c_k exp(-j k u0).

    The steered pattern satisfies |C'(u)| = |C(u - u0)| exactly; u0 = 0
    returns an unmodified copy.
    """
    c = np.asarray(c)
    if u0 == 0.0:
        return c.copy()
    return c * np.exp(-1j * np.arange(len(c)) * u0)
