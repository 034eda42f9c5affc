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
smallest value at x = +-1 and at the real roots of G' in [-1, 1].  Every
finite Toeplitz section has its eigenvalues in [min G, max G]
(Grenander-Szego), so the lift gamma = -m, enlarged by a small safety
margin and kept above a tiny pivot floor, makes every section positive
definite; one banded Cholesky per factorization suffices.

Everything here stays in banded storage; the dense matrix is never formed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.linalg as _sla
from numpy.polynomial import chebyshev as _cheb

DEFAULT_EXPANSION_FACTOR = 30
MIN_EXPANSION = 176
DEFAULT_GAMMA_MARGIN = 1e-3
PIVOT_FLOOR_FACTOR = 1e-14


class FactorizationError(RuntimeError):
    """Banded Cholesky failed where it was expected to succeed."""


@dataclass(frozen=True)
class ToeplitzOperator:
    """Banded symmetric Toeplitz operator G + gamma*I in compact storage.

    ``taps`` is the full symmetric vector (length 2*order-1); ``expansion``
    is the padding Q ahead of the order-N window, so the operator is the
    leading (Q+N)-dimensional section the extraction reads.
    """

    taps: np.ndarray
    order: int
    expansion: int
    gamma: float = 0.0

    def __post_init__(self):
        taps = np.asarray(self.taps, float)
        object.__setattr__(self, "taps", taps)
        if len(taps) != 2 * self.order - 1:
            raise ValueError(f"taps length {len(taps)} does not match order {self.order}")
        scale = max(1.0, float(np.max(np.abs(taps))))
        if np.max(np.abs(taps - taps[::-1])) > 1e-9 * scale:
            raise ValueError("taps must be symmetric")
        if self.expansion < 1:
            raise ValueError("expansion must be at least 1")

    @property
    def dim(self) -> int:
        return self.expansion + self.order

    def banded(self) -> np.ndarray:
        """Upper-diagonal ordered banded storage of G + gamma*I.

        Row r holds diagonal number order-1-r, so row r is the constant
        taps[r]; the main diagonal (last row) carries the gamma lift.
        """
        ab = np.repeat(self.taps[:self.order, None], self.dim, axis=1)
        ab[-1, :] += self.gamma
        return ab


@dataclass(frozen=True)
class MinPhaseWeights:
    """Minimum-phase excitation extracted from a factorization."""

    c: np.ndarray
    gamma_used: float
    q_used: int
    refined: bool = False


@dataclass(frozen=True)
class FactorizationDiagnostics:
    gamma: float
    symbol_min: float
    autocorr_residual: float
    expansion: int
    refined: bool


def autocorrelation(c) -> np.ndarray:
    """Full autocorrelation of a real excitation: out[N-1+m] = sum_k c_k c_{k+m}."""
    c = np.asarray(c, float)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("expected a non-empty 1-d real vector")
    return np.correlate(c, c, mode="full")


def find_gamma(taps, *, gamma_margin: float = DEFAULT_GAMMA_MARGIN,
               pivot_floor_factor: float = PIVOT_FLOOR_FACTOR) -> tuple[float, float]:
    """Diagonal lift for the Toeplitz operator, from the exact symbol minimum.

    Returns ``(gamma, m)`` with m = min over u of
    G(u) = g_0 + 2 sum_k g_k cos(k u).  With x = cos u, G is the Chebyshev
    series a_0 = g_0, a_k = 2 g_k, so m is its least value at x = +-1 and
    at the roots of G'; roots are taken by their real part, clipped to
    [-1, 1], since a spurious point only adds a value G does take.

    gamma = -m * (1 + gamma_margin), raised so that min(G + gamma) reaches
    the pivot floor ``pivot_floor_factor * max|g|``; a symbol above that
    floor gets exactly 0.
    """
    taps = np.asarray(taps, float)
    a = taps[(len(taps) - 1) // 2:].copy()
    a[1:] *= 2.0
    roots = np.real(_cheb.chebroots(_cheb.chebder(a)))
    x = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
    m = float(np.min(_cheb.chebval(x, a)))
    floor = pivot_floor_factor * float(np.max(np.abs(taps)))
    return max((1.0 + gamma_margin) * -m, floor - m, 0.0), m


def cholesky_banded(op: ToeplitzOperator) -> np.ndarray:
    """Upper banded Cholesky factor of op, in the same banded storage.

    op is the leading section the extraction reads, so every pivot the
    extracted column depends on is computed and checked against the pivot
    floor; the trailing rows of a longer section are never computed.  They
    need no check either: a Cholesky pivot is at least the smallest
    eigenvalue of its leading section, which the lift keeps at or above
    min(G + gamma) >= the floor, on a section of any length.

    Raises
    ------
    FactorizationError
        If a pivot fails or falls to the pivot floor.
    """
    try:
        fact = _sla.cholesky_banded(op.banded(), lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        fact = None
    floor = PIVOT_FLOOR_FACTOR * float(np.max(np.abs(op.taps)))
    if fact is None or np.min(fact[-1, :] ** 2) <= floor:
        raise FactorizationError(f"banded Cholesky failed at gamma = {op.gamma!r}")
    return fact


def extract_min_phase(fact: np.ndarray, op: ToeplitzOperator) -> MinPhaseWeights:
    """Read the excitation out of the factor's last column.

    Column Q+N-1, the last of the leading section's factor, holds
    (c_{N-1}, ..., c_1, c_0) in matrix rows Q .. Q+N-1.  The factor of a
    banded matrix is banded with the same bandwidth, so that order-N
    window is the whole stored column.  The sign is normalized so that
    sum(c) > 0.
    """
    c = fact[::-1, op.dim - 1].copy()
    if c.sum() < 0.0:
        c = -c
    return MinPhaseWeights(c=c, gamma_used=op.gamma, q_used=op.expansion)


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
    returned unchanged.  The sign is normalized so that sum(c) >= 0.
    Roots are taken only when the Schur-Cohn step-down
    (:func:`_zeros_inside`) does not certify every zero strictly inside.
    """
    if _zeros_inside(c):
        return c
    z = np.roots(c)
    out = np.abs(z) > 1.0
    if not out.any():
        return c
    gain = c[0] * np.prod(np.abs(z[out]))
    z[out] = 1.0 / np.conj(z[out])
    c = np.real(gain * np.poly(z))
    return c if c.sum() >= 0.0 else -c


def refine_newton(c_init, taps, gamma: float, *,
                  tol: float = 1e-13, max_iter: int = 40) -> tuple[np.ndarray, bool]:
    """Newton polish of the factorization equations.

    Solves sum_k c_k c_{k+m} = g[N-1+m] + gamma*[m=0] for m = 0..N-1 with
    a damped Newton iteration started at ``c_init``.  Returns the refined
    vector and True on success; on divergence or a singular Jacobian the
    starting vector is returned unchanged with False.

    Iteration continues past ``tol`` until the residual stops improving:
    an ill-conditioned Jacobian (clustered zeros) amplifies a residual at
    tol into a much larger coefficient error, so the extra steps to the
    machine floor are what make the coefficients themselves accurate.
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
    for _ in range(max_iter):
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
    if norm <= tol:
        return c, True
    return np.asarray(c_init, float), False


def spectral_factorize(taps, *,
                       expansion_factor: int = DEFAULT_EXPANSION_FACTOR,
                       gamma_margin: float = DEFAULT_GAMMA_MARGIN,
                       newton: bool = False
                       ) -> tuple[MinPhaseWeights, FactorizationDiagnostics]:
    """Full pipeline: lift, factor, extract, optionally polish, verify.

    The lift comes from the exact symbol minimum (:func:`find_gamma`), so
    one banded Cholesky factors the lifted (Q+N)-dimensional leading
    section, whose last column is the extraction; a failure raises
    FactorizationError.  ``expansion_factor`` sets Q = expansion_factor * N,
    floored at MIN_EXPANSION: the extraction error decays like r^(2Q) with
    r the largest zero radius, so tiny arrays still need Q in the hundreds
    when a zero sits near 0.95.  The optional Newton polish tightens the
    autocorrelation residual toward machine precision; if it diverges,
    the unrefined extraction is kept and flagged in the diagnostics.

    A lift that leaves G + gamma nearly touching zero puts zeros of the
    factor close to the unit circle, where a finite Q may not resolve
    them and the extraction can land a zero just outside; Newton then
    converges to that non-minimum-phase factor.  Such zeros are
    reflected into the disc (:func:`reflect_into_disc`), which turns any
    spectral factor into the minimum-phase one; it takes roots only when
    a Schur-Cohn step-down does not certify every zero inside.
    """
    taps = np.asarray(taps, float)
    order = (len(taps) + 1) // 2
    expansion = max(expansion_factor * order, MIN_EXPANSION)
    gamma, m = find_gamma(taps, gamma_margin=gamma_margin)
    op = ToeplitzOperator(taps, order, expansion, gamma)
    weights = extract_min_phase(cholesky_banded(op), op)
    if newton:
        c_ref, ok = refine_newton(weights.c, taps, op.gamma)
        weights = replace(weights, c=c_ref if ok else weights.c, refined=ok)
    weights = replace(weights, c=reflect_into_disc(weights.c))

    residual = verify_factorization(weights, taps)
    diag = FactorizationDiagnostics(
        gamma=op.gamma, symbol_min=m,
        autocorr_residual=float(np.max(np.abs(residual))),
        expansion=op.expansion, refined=weights.refined)
    return weights, diag
