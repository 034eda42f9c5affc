import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mparray import (FactorizationError, ToeplitzOperator, autocorrelation,
                     design1_spec, find_gamma, refine_newton,
                     spectral_factorize, to_prototype_spec,
                     verify_factorization)
from mparray.spectral_factor import (DEFAULT_EXPANSION_FACTOR,
                                     DEFAULT_GAMMA_MARGIN, MIN_EXPANSION,
                                     PIVOT_FLOOR_FACTOR, _jacobian_of,
                                     _zeros_inside, cholesky_banded,
                                     extract_min_phase, reflect_into_disc)

from conftest import make_min_phase


def factor_column(fact: np.ndarray, j: int) -> np.ndarray:
    """Dense column j of a banded upper factor (matrix rows j-N+1 .. j)."""
    return fact[max(0, fact.shape[0] - 1 - j):, j]


def dense_from_banded(fact: np.ndarray) -> np.ndarray:
    dim = fact.shape[1]
    full = np.zeros((dim, dim))
    for j in range(dim):
        col = factor_column(fact, j)
        full[j - len(col) + 1:j + 1, j] = col
    return full


def dense_operator(op: ToeplitzOperator) -> np.ndarray:
    first = np.zeros(op.dim)
    first[:op.order] = op.taps[op.order - 1:]
    first[0] += op.gamma
    return scipy.linalg.toeplitz(first)


def test_autocorrelation_known_values():
    assert autocorrelation([1.0, 0.5]) == pytest.approx([0.5, 1.25, 0.5])
    assert autocorrelation([1.0]) == pytest.approx([1.0])


def test_autocorrelation_rejects_bad_input():
    with pytest.raises(ValueError):
        autocorrelation([])
    with pytest.raises(ValueError):
        autocorrelation([[1.0, 0.5]])


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
def test_autocorrelation_is_polynomial_product(vals):
    c = np.array(vals)
    g = autocorrelation(c)
    assert g == pytest.approx(np.convolve(c, c[::-1]), abs=1e-12)
    assert g[len(c) - 1] == pytest.approx(float(np.dot(c, c)), abs=1e-12)
    assert g == pytest.approx(g[::-1], abs=1e-12)


def test_operator_entries_and_dimension():
    g = np.array([0.5, 1.25, 0.5])
    op = ToeplitzOperator(g, 2, 3, gamma=0.125)
    assert op.dim == 5  # Q + N: the leading section the extraction reads
    dense = dense_operator(op)
    assert np.allclose(dense, dense.T)
    assert dense[0, 0] == pytest.approx(1.375)
    assert dense[0, 1] == pytest.approx(0.5)
    assert dense[0, 2] == 0.0


def test_operator_rejects_malformed_taps():
    with pytest.raises(ValueError, match="symmetric"):
        ToeplitzOperator(np.array([1.0, 2.0, 3.0]), 2, 4)
    with pytest.raises(ValueError, match="length"):
        ToeplitzOperator(np.array([1.0, 2.0]), 2, 4)
    with pytest.raises(ValueError, match="expansion"):
        ToeplitzOperator(np.array([0.5, 1.25, 0.5]), 2, 0)


def symbol_on_grid(g, points: int = 2_000_001) -> np.ndarray:
    """G(u) = g_0 + 2 sum_k g_k cos(k u) on a uniform grid over [0, pi]."""
    n = (len(g) + 1) // 2
    u = np.linspace(0.0, np.pi, points)
    G = np.full(points, g[n - 1])
    for k in range(1, n):
        G += 2.0 * g[n - 1 + k] * np.cos(k * u)
    return G


def test_gamma_zero_for_nonnegative_symbol():
    gamma, m = find_gamma(autocorrelation([1.0, 0.5]))
    assert gamma == 0.0
    assert m == pytest.approx(0.25, abs=1e-15)  # |1 + 0.5 e^{iu}|^2 at u = pi
    gamma, m = find_gamma(np.array([1.0]))
    assert gamma == 0.0 and m == 1.0


def test_symbol_min_matches_dense_grid(design1, design2, design3):
    # T_7(cos u) + 0.3: Chebyshev coefficients a_0 = 0.3, a_7 = 1.
    chebyshev = np.zeros(15)
    chebyshev[[0, 14]] = 0.5
    chebyshev[7] = 0.3
    cases = [r.prototype.taps for r in (design1, design2, design3)] + [chebyshev]
    for g in cases:
        _, m = find_gamma(g)
        assert m == pytest.approx(float(symbol_on_grid(g).min()),
                                  abs=1e-12 * float(np.max(np.abs(g))))
    assert find_gamma(chebyshev)[1] == pytest.approx(-0.7, abs=1e-12)


def test_section_eigenvalues_lie_above_symbol_min(design1):
    # Grenander-Szego: every finite section's spectrum lies in [min G, max G],
    # so the lift -m covers every Q; by interlacing, a longer section's
    # lowest eigenvalue is lower, approaching m from above.
    pspec = to_prototype_spec(design1_spec())
    g = design1.prototype.taps
    order = (len(g) + 1) // 2
    gamma, m = find_gamma(g)
    lams = []
    for q in (24, 100):
        lam = float(np.linalg.eigvalsh(dense_operator(ToeplitzOperator(g, order, q))).min())
        assert m <= lam < 0.0
        assert gamma > -lam
        lams.append(lam)
    assert lams[1] <= lams[0]
    assert gamma == (1.0 + DEFAULT_GAMMA_MARGIN) * -m
    assert 0.0 < gamma <= 2.0 * pspec.delta_stop * 1.01


def test_cholesky_fails_below_lift_and_succeeds_at_gamma(design1):
    g = design1.prototype.taps
    order = (len(g) + 1) // 2
    expansion = max(DEFAULT_EXPANSION_FACTOR * order, MIN_EXPANSION)
    gamma, m = find_gamma(g)
    assert m < 0.0
    with pytest.raises(FactorizationError):
        cholesky_banded(ToeplitzOperator(g, order, expansion, gamma=0.5 * -m))
    cholesky_banded(ToeplitzOperator(g, order, expansion, gamma=gamma))


def test_factorize_runs_one_cholesky(monkeypatch, design2):
    calls = []
    original = scipy.linalg.cholesky_banded

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counting)
    for g in (design2.prototype.taps, autocorrelation([1.0, 0.5]),
              autocorrelation([1.0, 2.0, 1.0])):
        calls.clear()
        spectral_factorize(g, newton=True)
        assert len(calls) == 1


def test_touching_symbol_gets_the_pivot_floor_and_keeps_newton():
    g = autocorrelation([1.0, 2.0, 1.0])  # (1 + e^{iu})^2 vanishes at u = pi
    gamma, m = find_gamma(g)
    assert m == pytest.approx(0.0, abs=1e-15)
    assert gamma == PIVOT_FLOOR_FACTOR * 6.0 - m
    w, diag = spectral_factorize(g, newton=True)
    assert diag.refined and diag.symbol_min == m
    assert diag.autocorr_residual <= 1e-12


def test_lifted_input_is_fully_lifted_and_min_phase():
    # The centre tap lowered by 5 % of max G leaves G dipping below zero.
    # A lift from a finite section's lowest eigenvalue falls short of
    # -min G here, and the factor then misses the residual bound.
    rng = np.random.default_rng(2)
    n = int(rng.integers(4, 13))
    g = autocorrelation(make_min_phase(rng, n))
    g[n - 1] -= 0.05 * float(symbol_on_grid(g).max())
    need = -float(symbol_on_grid(g).min())
    assert need > 0.0
    w, diag = spectral_factorize(g, newton=True)
    assert w.gamma_used >= need
    assert diag.refined
    assert np.max(np.abs(verify_factorization(w, g))) <= 1e-12 * float(np.max(np.abs(g)))
    assert np.max(np.abs(np.roots(w.c))) <= 1.0


def lifted_taps(rng: np.random.Generator, n: int) -> np.ndarray:
    """Autocorrelation of an oracle draw, centre tap lowered by 1-20 % of sum|g| >= max G."""
    g = autocorrelation(make_min_phase(rng, n))
    g[n - 1] -= rng.uniform(0.01, 0.2) * float(np.sum(np.abs(g)))
    return g


def test_leading_section_column_equals_full_factor_column():
    # Reference: the factor of the (2Q+N)-dimensional section the
    # extraction used to read from.  By the nesting of Cholesky factors its
    # column Q+N-1 is the last column of the leading section's factor.
    rng = np.random.default_rng(10)
    for n in range(1, 65):
        g = lifted_taps(rng, n) if n > 1 else np.array([rng.uniform(0.5, 2.0)])
        gamma, _ = find_gamma(g)
        q = max(DEFAULT_EXPANSION_FACTOR * n, MIN_EXPANSION)
        op = ToeplitzOperator(g, n, q, gamma)
        full = np.repeat(g[:n, None], 2 * q + n, axis=1)
        full[-1, :] += gamma
        reference = factor_column(
            scipy.linalg.cholesky_banded(full, lower=False, check_finite=False),
            q + n - 1)
        column = factor_column(cholesky_banded(op), op.dim - 1)
        assert column.tobytes() == reference.tobytes(), n


def radius_vector(radii, angles) -> np.ndarray:
    """Real polynomial with a conjugate pair per (radius, angle), angle 0 or pi real."""
    zeros = []
    for r, a in zip(radii, angles):
        z = r * np.exp(1j * a)
        zeros += [z] if a in (0.0, np.pi) else [z, np.conj(z)]
    return np.real(np.poly(zeros))


def test_step_down_verdict_agrees_with_roots():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 33))
        cases.append(rng.standard_normal(n))
        cases.append(make_min_phase(rng, n))
    for r in (0.3, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1, 3.0):
        for angle in (0.0, 0.7, 2.1, np.pi):
            cases.append(radius_vector([r, 0.5, 0.6], [angle, 1.3, 2.6]))
    for c in cases:
        assert _zeros_inside(c) == (not np.any(np.abs(np.roots(c)) > 1.0)), c
    assert sum(map(_zeros_inside, cases)) >= 200
    # No zero, a leading zero, or a zero on the circle: never certified,
    # so the reflection takes roots, finds none outside and keeps c.
    for c in ([1.0], [0.0], [0.0, 1.0, 0.5], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0, 1.0]):
        c = np.array(c)
        assert not _zeros_inside(c)
        assert reflect_into_disc(c) is c


def test_reflection_takes_no_roots_when_every_zero_is_inside(monkeypatch):
    calls = []
    original = np.roots

    def counting(c):
        calls.append(len(c))
        return original(c)

    monkeypatch.setattr(np, "roots", counting)
    inside = make_min_phase(np.random.default_rng(12), 16)
    assert reflect_into_disc(inside) is inside
    assert calls == []
    reflect_into_disc(radius_vector([2.0, 0.5], [0.0, 1.0]))
    assert calls == [4]


def test_reflection_moves_outside_zeros_and_keeps_autocorrelation():
    inside = np.real(np.poly([0.5 * np.exp(1j), 0.5 * np.exp(-1j), -0.3]))
    assert reflect_into_disc(inside) is inside
    c = np.real(np.poly([2.0, 0.5 * np.exp(1j), 0.5 * np.exp(-1j), -1.25]))
    flipped = reflect_into_disc(c)
    assert np.sort(np.abs(np.roots(flipped))) == pytest.approx([0.5, 0.5, 0.5, 0.8])
    assert autocorrelation(flipped) == pytest.approx(autocorrelation(c), abs=1e-12)
    assert flipped.sum() > 0.0


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 24), st.integers(0, 2 ** 31 - 1))
def test_newton_jacobian_matches_double_loop(n, seed):
    c = np.random.default_rng(seed).standard_normal(n)
    loop = np.zeros((n, n))
    for m in range(n):
        for j in range(n):
            if j + m < n:
                loop[m, j] += c[j + m]
            if j - m >= 0:
                loop[m, j] += c[j - m]
    assert np.array_equal(_jacobian_of(n)(c), loop)
    assert _jacobian_of(n) is _jacobian_of(n)  # index arrays built once per n


def test_scalar_cholesky():
    op = ToeplitzOperator(np.array([4.0]), 1, 4)
    fact = cholesky_banded(op)
    assert fact[-1, :] == pytest.approx(np.full(op.dim, 2.0))


def test_factor_reconstructs_operator():
    op = ToeplitzOperator(np.array([0.5, 1.25, 0.5]), 2, 60)
    full = dense_from_banded(cholesky_banded(op))
    assert np.max(np.abs(full.T @ full - dense_operator(op))) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_factor_reconstructs_random_autocorrelations(n, seed):
    c = make_min_phase(np.random.default_rng(seed), n)
    op = ToeplitzOperator(autocorrelation(c), n, 10)
    full = dense_from_banded(cholesky_banded(op))
    assert np.max(np.abs(full.T @ full - dense_operator(op))) <= 1e-10


def test_extraction_recovers_two_element_oracle():
    g = np.array([0.5, 1.25, 0.5])
    op = ToeplitzOperator(g, 2, 60)
    weights = extract_min_phase(cholesky_banded(op), op)
    assert weights.c == pytest.approx([1.0, 0.5], abs=1e-6)


def test_extraction_trivial_single_tap():
    op = ToeplitzOperator(np.array([1.0]), 1, 30)
    weights = extract_min_phase(cholesky_banded(op), op)
    assert weights.c == pytest.approx([1.0], abs=1e-12)


def test_verification_residual_semantics():
    w, _ = spectral_factorize(np.array([0.5, 1.25, 0.5]))
    assert np.max(np.abs(verify_factorization(w, np.array([0.5, 1.25, 0.5])))) <= 1e-10

    w1, _ = spectral_factorize(np.array([1.0]))
    assert verify_factorization(w1, np.array([1.0])) == pytest.approx([0.0])


def test_verification_detects_perturbation():
    g = np.array([0.5, 1.25, 0.5])
    w, _ = spectral_factorize(g)
    bumped = w.c.copy()
    bumped[0] += 1e-3
    from dataclasses import replace
    assert np.max(np.abs(verify_factorization(replace(w, c=bumped), g))) >= 1e-4


def test_newton_accepts_exact_start():
    c = np.array([1.0, 0.5])
    refined, ok = refine_newton(c, autocorrelation(c), 0.0)
    assert ok
    assert refined == pytest.approx(c, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_newton_converges_from_nearby_start(n, seed):
    rng = np.random.default_rng(seed)
    c = make_min_phase(rng, n)
    start = c + rng.uniform(-1e-3, 1e-3, n)
    refined, ok = refine_newton(start, autocorrelation(c), 0.0)
    assert ok
    assert refined == pytest.approx(c, abs=1e-9)


def test_newton_flags_singular_jacobian():
    g = np.array([0.5, 1.25, 0.5])
    refined, ok = refine_newton(np.zeros(2), g, 0.0)
    assert not ok
    assert refined == pytest.approx([0.0, 0.0])


def test_factorize_trivial_and_sign_convention():
    w, diag = spectral_factorize(np.array([1.0]))
    assert w.c == pytest.approx([1.0])
    assert diag.gamma == 0.0

    w2, _ = spectral_factorize(autocorrelation([-1.0, -0.5]))
    assert w2.c.sum() > 0.0  # sign ambiguity resolved toward positive broadside


def test_factorize_rejects_even_length():
    with pytest.raises(ValueError):
        spectral_factorize(np.array([0.5, 1.25, 1.25, 0.5]))


def test_expansion_floor_is_applied():
    _, diag = spectral_factorize(autocorrelation([1.0, 0.5]), expansion_factor=30)
    assert diag.expansion == MIN_EXPANSION


def test_center_equation_holds(oracle_rng):
    for _ in range(20):
        n = int(oracle_rng.integers(2, 13))
        c = make_min_phase(oracle_rng, n)
        g = autocorrelation(c)
        w, diag = spectral_factorize(g)
        lhs = float(np.dot(w.c, w.c))
        rhs = g[n - 1] + diag.gamma
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_residual_improves_with_expansion():
    rng = np.random.default_rng(7)
    c = make_min_phase(rng, 12)
    g = autocorrelation(c)
    resids = []
    for factor in (15, 30, 60):
        _, diag = spectral_factorize(g, expansion_factor=factor)
        resids.append(diag.autocorr_residual)
    assert resids[1] <= resids[0] * (1.0 + 1e-9)
    assert resids[2] <= resids[1] * (1.0 + 1e-9)


def test_round_trip_quick(oracle_rng):
    for _ in range(40):
        n = int(oracle_rng.integers(2, 13))
        c = make_min_phase(oracle_rng, n)
        g = autocorrelation(c)
        raw, _ = spectral_factorize(g)
        refined, _ = spectral_factorize(g, newton=True)
        assert np.max(np.abs(raw.c - c)) <= 1e-6
        assert np.max(np.abs(refined.c - c)) <= 1e-12
