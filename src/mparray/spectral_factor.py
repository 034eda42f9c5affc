"""Minimum-phase factor extraction from symmetric autocorrelation taps.

Given real symmetric taps g (length 2N-1) whose zero-phase transform
G(u) may dip slightly below zero, the excitation c with

    sum_k c_k c_{k+m} = g[N-1+m] + gamma * [m == 0]

and all pattern zeros inside the closed unit disc is recovered from the
banded Cholesky factor of the symmetric Toeplitz matrix with entry
(i, j) = g[N-1-|i-j|], lifted by gamma on the diagonal.  In the factor of
a (2Q+N)-dimensional section, column Q+N-1 converges, as the expansion Q
grows, to the reversed coefficient vector of the minimum-phase factor.
Column j of an upper Cholesky factor depends only on the leading
(j+1)x(j+1) section, whose factor is the leading block of the full one,
so that column is the last column of the factor of the (Q+N)-dimensional
leading section; only that section is formed and factored.

G is a Chebyshev series in x = cos u, so its minimum m is exact: the
smallest value at x = +-1 and at the real roots of G' in [-1, 1] (the
points of :func:`critical_cosines`, at which the search's band judge
reads G + gamma before factoring, :func:`lifted_symbol`).  Those roots
come from the Remez exchange's stacked solver, one row at a time, so one
function finds every critical point of a real series.  Every finite
Toeplitz section has its eigenvalues in [min G, max G] (Grenander-Szego),
so the lift gamma = -m, enlarged by a small safety margin and kept above a
tiny pivot floor, makes every section positive definite; one banded
Cholesky per factorization suffices.  The curvature of G at its minima,
read at the same points, gives the distance of the factor's outermost
zero from the unit circle, and with it the Q the extraction needs.

Everything here stays in banded storage; the dense matrix is never formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as _sla
from numpy.polynomial import chebyshev as _cheb

from .equiripple import _derivative_roots

DEFAULT_EXPANSION_FACTOR = 30
MIN_EXPANSION = 176
GAMMA_MARGIN = 1e-3
PIVOT_FLOOR_FACTOR = 1e-14
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 40


class FactorizationError(RuntimeError):
    """Banded Cholesky failed where it was expected to succeed."""


@dataclass(frozen=True)
class MinPhaseWeights:
    """Minimum-phase excitation extracted from a factorization."""

    c: np.ndarray
    gamma_used: float


@dataclass(frozen=True)
class FactorizationDiagnostics:
    gamma: float
    symbol_min: float
    autocorr_residual: float
    expansion: int
    refined: bool


def autocorrelation(c) -> np.ndarray:
    """Full autocorrelation of an excitation: out[N-1+m] = sum_k conj(c_k) c_{k+m}."""
    c = np.asarray(c, complex if np.iscomplexobj(c) else float)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("expected a non-empty 1-d vector")
    return np.correlate(c, c, mode="full")


def critical_cosines(r) -> np.ndarray:
    """x = cos u at every u in [0, pi] where G(u) = sum_|k|<N r_k exp(jku) may peak.

    ``r`` is the one-sided autocorrelation r_0..r_{N-1} (r_{-k} = conj(r_k)).
    Real r: G is the Chebyshev series a_0 = r_0, a_k = 2 r_k in x, and the
    points are +-1 and the real parts of the roots of G', clipped to [-1, 1].
    The roots come from the exchange's stacked solver
    (:func:`mparray.equiripple._derivative_roots`) on the one row a, so the
    lift, t and both band judges read the same points an exchange would.
    Complex r: the points are +-1 and the cosines of the angles of all roots
    of sum_|k|<N k r_k z^(k+N-1), which vanishes where dG/du does, z = exp(ju).
    A spurious point only adds a value G does take, so no root tolerance is
    needed.
    """
    r = np.asarray(r)
    if np.iscomplexobj(r):
        k = np.arange(1, len(r))
        dz = np.concatenate([(k * r[1:])[::-1], [0.0], -k * np.conj(r[1:])])
        return np.concatenate([[-1.0, 1.0], np.cos(np.angle(np.roots(dz)))])
    roots = _derivative_roots(np.concatenate([r[:1], 2.0 * r[1:]])[None, :])[0]
    # nan pads a row whose derivative chebroots trimmed; it marks no root.
    return np.concatenate([[-1.0, 1.0], np.clip(roots[~np.isnan(roots)], -1.0, 1.0)])


def lifted_symbol(taps):
    """The one reader of G's critical levels and lift, for float ``taps``.

    Returns ``(a, x, g, gamma, m)``: G's Chebyshev series a in x = cos u,
    the points x of :func:`critical_cosines`, G(x) and :func:`find_gamma`'s
    lift gamma and minimum m.  g + gamma is |C|^2 of the factor
    :func:`spectral_factorize` extracts, up to its residual, at every point
    where it may take an extreme, read with no factorization.
    """
    r = taps[(len(taps) - 1) // 2:]
    a = np.concatenate([r[:1], 2.0 * r[1:]])
    x = critical_cosines(r)
    g = _cheb.chebval(x, a)
    m = float(np.min(g))
    floor = PIVOT_FLOOR_FACTOR * float(np.max(np.abs(taps)))
    return a, x, g, max((1.0 + GAMMA_MARGIN) * -m, floor - m, 0.0), m


def find_gamma(taps) -> tuple[float, float, float]:
    """Diagonal lift for the Toeplitz operator, from the exact symbol minimum.

    Returns ``(gamma, m, t)`` with m = min over u of
    G(u) = g_0 + 2 sum_k g_k cos(k u), the least value of G's Chebyshev
    series at the points of :func:`critical_cosines`.

    gamma = -m * (1 + GAMMA_MARGIN), raised so that min(G + gamma) reaches
    the pivot floor PIVOT_FLOOR_FACTOR * max|g|; a symbol above that floor
    gets exactly 0.

    t is the distance from the unit circle of the factor's outermost zero,
    the least sqrt(2 (G + gamma) / G_uu) over the points where
    G_uu = -sum_k k^2 a_k cos(k u) > 0 (local minima in u): there
    G + gamma ~ (G + gamma)(u_k) + G_uu (u - u_k)^2 / 2 vanishes at
    u = u_k +- j t, a zero at radius exp(-t).  With no such point (a
    constant symbol) t is infinite.  Where the pivot floor, not the
    margin, sets the lift, G touches zero as far as the factorization can
    tell (a pencil beam's symbol does, at every null): its zeros lie on
    the circle and t is 0.
    """
    taps = np.asarray(taps, float)
    a, x, g, gamma, m = lifted_symbol(taps)
    if gamma == PIVOT_FLOOR_FACTOR * float(np.max(np.abs(taps))) - m:
        return gamma, m, 0.0
    k = np.arange(len(a))
    g_uu = -np.cos(np.outer(np.arccos(x), k)) @ (k * k * a)
    curved = g_uu > 0.0
    t = np.min(np.sqrt(2.0 * (g[curved] + gamma) / g_uu[curved]), initial=math.inf)
    return gamma, m, float(t)


def cholesky_banded(taps, expansion: int, gamma: float) -> np.ndarray:
    """Upper banded Cholesky factor of the lifted Toeplitz section G + gamma*I.

    The section is the leading (Q+N)-dimensional one the extraction reads,
    Q = ``expansion`` and N the order of the symmetric ``taps`` (length
    2N-1), held in upper-diagonal ordered banded storage: row r holds
    diagonal number N-1-r, the constant taps[r], and the main diagonal
    (last row) carries the lift.  The factor overwrites it, in the same
    storage.

    Every pivot the extracted column depends on is computed and checked
    against the pivot floor; the trailing rows of a longer section are
    never computed.  They need no check either: a Cholesky pivot is at
    least the smallest eigenvalue of its leading section, which the lift
    keeps at or above min(G + gamma) >= the floor, on a section of any
    length.

    Raises
    ------
    FactorizationError
        If a pivot fails or falls to the pivot floor.
    """
    taps = np.asarray(taps, float)
    order = (len(taps) + 1) // 2
    # Fortran order lets LAPACK factor the section in place, with no copy.
    banded = np.empty((order, expansion + order), order="F")
    banded[:] = taps[:order, None]
    banded[-1, :] += gamma
    try:
        fact = _sla.cholesky_banded(banded, overwrite_ab=True, lower=False,
                                    check_finite=False)
    except np.linalg.LinAlgError:
        fact = None
    floor = PIVOT_FLOOR_FACTOR * float(np.max(np.abs(taps)))
    if fact is None or np.min(fact[-1, :] ** 2) <= floor:
        raise FactorizationError(f"banded Cholesky failed at gamma = {gamma!r}")
    return fact


def verify_factorization(weights: MinPhaseWeights, taps) -> np.ndarray:
    """Residual vector autocorrelation(c) - g, gamma removed from the center."""
    taps = np.asarray(taps, float)
    residual = autocorrelation(weights.c) - taps
    center = (len(taps) - 1) // 2
    residual[center] -= weights.gamma_used
    return residual


@lru_cache
def _jacobian_of(n: int):
    """Jacobian of c -> (sum_k c_k c_{k+m})_{m<n}, as a function of c.

    Entry (m, j) is c[j+m] + c[j-m], a Hankel plus a Toeplitz part, with a
    term dropped where its index leaves 0..n-1.  The index arrays are
    built once per n (the function is memoized); dropped terms read a
    zero padded after c.
    """
    m, j = np.ogrid[:n, :n]
    hankel = np.where(j + m < n, j + m, n)
    toeplitz = np.where(j >= m, j - m, n)

    def jacobian(c):
        padded = np.append(c, 0.0)
        return padded[hankel] + padded[toeplitz]

    return jacobian


def _zeros_inside(c) -> bool:
    """True when a Schur-Cohn step-down certifies every zero of c in |z| < 1.

    With k = a[-1]/a[0], the zeros of a all lie strictly inside the unit
    circle exactly when |k| < 1 and those of a - k*reversed(a), less its
    vanished constant term, do too.  The O(N^2) scalar recursion takes no
    eigensolve.  The certificate is for the open disc itself, with no
    margin: a zero within rounding of the circle may land on either side,
    as it may for np.roots.  A zero leading coefficient at any step, a
    step with |k| >= 1 or a vector with no zero at all gives False, and
    the caller takes roots.
    """
    a = np.asarray(c, float).tolist()
    if len(a) < 2:
        return False
    for d in range(len(a) - 1, 0, -1):
        if a[0] == 0.0:
            return False
        k = a[d] / a[0]
        if not abs(k) < 1.0:
            return False
        a = [a[i] - k * a[d - i] for i in range(d)]
    return True


def reflect_into_disc(c) -> np.ndarray:
    """c with each pattern zero z outside the unit circle moved to 1/conj(z).

    Each move is an all-pass factor scaled by |z|, so |C(u)| and the
    autocorrelation stay as they are; a vector with no zero outside is
    returned unchanged.  Roots are taken only when the Schur-Cohn
    step-down (:func:`_zeros_inside`) does not certify every zero strictly
    inside.
    """
    if _zeros_inside(c):
        return c
    z = np.roots(c)
    out = np.abs(z) > 1.0
    if not out.any():
        return c
    gain = c[0] * np.prod(np.abs(z[out]))
    z[out] = 1.0 / np.conj(z[out])
    return np.real(gain * np.poly(z))


def refine_newton(c_init, taps, gamma: float) -> tuple[np.ndarray, bool]:
    """Newton polish of the factorization equations.

    Solves sum_k c_k c_{k+m} = g[N-1+m] + gamma*[m=0] for m = 0..N-1 with
    a damped Newton iteration started at ``c_init``, for at most
    NEWTON_MAX_ITER steps.  Returns the refined vector and True when the
    residual ends at or below NEWTON_TOL; on divergence or a singular
    Jacobian the starting vector is returned unchanged with False.

    Iteration continues past NEWTON_TOL until the residual stops improving:
    an ill-conditioned Jacobian (clustered zeros) amplifies a residual at
    that bound into a much larger coefficient error, so the extra steps to
    the machine floor are what make the coefficients themselves accurate.
    """
    taps = np.asarray(taps, float)
    c = np.asarray(c_init, float).copy()
    n = len(c)
    target = taps[n - 1:].copy()
    target[0] += gamma

    def residual(v):
        return np.correlate(v, v, mode="full")[n - 1:] - target

    jacobian = _jacobian_of(n)
    r = residual(c)
    norm = float(np.max(np.abs(r)))
    for _ in range(NEWTON_MAX_ITER):
        try:
            step = np.linalg.solve(jacobian(c), -r)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(12):
            trial = c + scale * step
            r_t = residual(trial)
            norm_t = float(np.max(np.abs(r_t)))
            if norm_t < norm and np.all(np.isfinite(r_t)):
                c, r, norm = trial, r_t, norm_t
                break
            scale *= 0.5
        else:
            break
    if norm <= NEWTON_TOL:
        return c, True
    return np.asarray(c_init, float), False


def spectral_factorize(taps, *, newton: bool = False
                       ) -> tuple[MinPhaseWeights, FactorizationDiagnostics]:
    """Full pipeline: lift, factor, extract, optionally polish, verify.

    The lift comes from the exact symbol minimum, enlarged by the fixed
    relative margin GAMMA_MARGIN (:func:`find_gamma`), so one banded
    Cholesky factors the lifted (Q+N)-dimensional leading section, whose
    last column is the extraction; a failure raises FactorizationError,
    and taps of even length, not finite or not symmetric raise
    ValueError.

    The extraction error decays like exp(-2 Q t), with t the distance of
    the factor's outermost zero from the unit circle, which
    :func:`find_gamma` returns with the lift.  Q is the least expansion
    that keeps that error below t/4, and never below
    DEFAULT_EXPANSION_FACTOR * N or MIN_EXPANSION, the floor the
    unpolished extraction needs.  t/4 is Newton's basin by a Kantorovich
    estimate that takes the Jacobian inverse as 1/t: an estimate, not a
    certificate.  A zero on the circle (t = 0) converges at no geometric
    rate; the floor stands, and Newton recovers it.
    ``newton`` turns on the Newton polish (:func:`refine_newton`), which
    tightens the autocorrelation residual toward machine precision; if it
    diverges, the unrefined extraction is kept and flagged in the
    diagnostics.  The element-count search always polishes.

    An extraction may still land a zero just outside the circle, and
    Newton then converges to that non-minimum-phase factor.  Such zeros
    are reflected into the disc (:func:`reflect_into_disc`), which turns
    any spectral factor into the minimum-phase one; it takes roots only
    when a Schur-Cohn step-down does not certify every zero inside.  The
    sign is normalized last, so that sum(c) >= 0.
    """
    taps = np.asarray(taps, float)
    if len(taps) % 2 == 0:
        raise ValueError(f"taps must have odd length 2N-1, got {len(taps)}")
    if not np.all(np.isfinite(taps)):
        raise ValueError("taps must be finite")
    scale = max(1.0, float(np.max(np.abs(taps))))
    if np.max(np.abs(taps - taps[::-1])) > 1e-9 * scale:
        raise ValueError("taps must be symmetric")
    order = (len(taps) + 1) // 2
    gamma, m, t = find_gamma(taps)
    expansion = max(DEFAULT_EXPANSION_FACTOR * order, MIN_EXPANSION)
    if 0.0 < t < 4.0:  # from t = 4 on, exp(-2 Q t) <= t/4 at any Q
        expansion = max(expansion, math.ceil(math.log(4.0 / t) / (2.0 * t)))
    # Column Q+N-1, the factor's last, holds (c_{N-1}, ..., c_0): the
    # factor of a banded matrix has the same bandwidth, so the order-N
    # window is the whole stored column.
    c = cholesky_banded(taps, expansion, gamma)[::-1, -1].copy()
    refined = False
    if newton:
        c, refined = refine_newton(c, taps, gamma)
    c = reflect_into_disc(c)
    weights = MinPhaseWeights(c=c if c.sum() >= 0.0 else -c, gamma_used=gamma)

    residual = verify_factorization(weights, taps)
    diag = FactorizationDiagnostics(
        gamma=gamma, symbol_min=m,
        autocorr_residual=float(np.max(np.abs(residual))),
        expansion=expansion, refined=refined)
    return weights, diag
