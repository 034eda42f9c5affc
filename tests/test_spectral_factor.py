import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mparray import FactorizationError, design1_spec, design_pencil, spectral_factorize
from mparray.equiripple import _derivative_roots
from mparray.prototype import to_prototype_spec
from mparray.spectral_factor import (DEFAULT_EXPANSION_FACTOR,
                                     GAMMA_MARGIN, MIN_EXPANSION,
                                     PIVOT_FLOOR_FACTOR, _jacobian_of,
                                     _zeros_inside, autocorrelation,
                                     cholesky_banded, critical_cosines, find_gamma,
                                     reflect_into_disc, refine_newton,
                                     verify_factorization)

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


def dense_operator(g, expansion: int, gamma: float = 0.0) -> np.ndarray:
    """Dense (Q+N)-dimensional section of G + gamma*I for taps g of length 2N-1."""
    order = (len(g) + 1) // 2
    first = np.zeros(expansion + order)
    first[:order] = g[order - 1:]
    first[0] += gamma
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
    fact = cholesky_banded(g, 3, 0.125)
    assert fact.shape == (2, 5)  # bandwidth N-1; Q + N: the section the extraction reads
    full = dense_from_banded(fact)
    product = full.T @ full
    assert product[0, 0] == pytest.approx(1.375)
    assert product[0, 1] == pytest.approx(0.5)
    assert product[0, 2] == 0.0
    assert np.max(np.abs(product - dense_operator(g, 3, 0.125))) <= 1e-15


def test_operator_rejects_malformed_taps():
    with pytest.raises(ValueError, match="symmetric"):
        spectral_factorize(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="length"):
        spectral_factorize(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="length"):
        spectral_factorize(np.array([]))


@pytest.mark.parametrize("taps", [[0.1, np.inf, 0.1], [np.nan, 1.0, np.nan]])
def test_non_finite_taps_are_rejected(taps):
    # A nan compares false, so the symmetry test alone would let it through.
    with pytest.raises(ValueError, match="taps must be finite"):
        spectral_factorize(np.array(taps), newton=True)


def symbol_on_grid(g, points: int = 2_000_001) -> np.ndarray:
    """G(u) = g_0 + 2 sum_k g_k cos(k u) on a uniform grid over [0, pi]."""
    n = (len(g) + 1) // 2
    u = np.linspace(0.0, np.pi, points)
    G = np.full(points, g[n - 1])
    for k in range(1, n):
        G += 2.0 * g[n - 1 + k] * np.cos(k * u)
    return G


def test_gamma_zero_for_nonnegative_symbol():
    gamma, m, t = find_gamma(autocorrelation([1.0, 0.5]))
    assert gamma == 0.0
    assert m == pytest.approx(0.25, abs=1e-15)  # |1 + 0.5 e^{iu}|^2 at u = pi
    # G = 1.25 + cos u: G_uu(pi) = 1, so t = sqrt(2 * 0.25); the zero -0.5
    # lies ln 2 = 0.693 from the circle.
    assert t == pytest.approx(math.sqrt(0.5), rel=1e-12)
    gamma, m, t = find_gamma(np.array([1.0]))
    assert gamma == 0.0 and m == 1.0 and t == math.inf


def test_critical_cosines_match_numpy_chebder():
    # The stacked finder gives numpy's chebroots(chebder(a)) bit for bit,
    # so the points are those.
    rng = np.random.default_rng(20261019)
    for n in range(1, 40):
        r = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7)
        a = np.concatenate([r[:1], 2.0 * r[1:]])
        roots = np.real(np.polynomial.chebyshev.chebroots(np.polynomial.chebyshev.chebder(a)))
        want = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
        assert np.array_equal(critical_cosines(r), want), n


def test_critical_cosines_of_a_trimmed_derivative():
    # r ends in an exact 0, so G' has a zero leading coefficient: chebroots
    # trims it, and the stacked finder sends the row down its fallback,
    # whose padding (nan) critical_cosines drops.
    rng = np.random.default_rng(20261020)
    for n in range(3, 20):
        r = rng.normal(size=n)
        r[-1] = 0.0
        a = np.concatenate([r[:1], 2.0 * r[1:]])
        assert np.isnan(_derivative_roots(a[None, :])[0, -1]), n
        roots = np.real(np.polynomial.chebyshev.chebroots(np.polynomial.chebyshev.chebder(a)))
        want = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
        assert np.array_equal(critical_cosines(r), want), n


@pytest.mark.parametrize("r", [[], [2.0], [1.0, 0.5]])
def test_critical_cosines_below_degree_two_are_the_ends(r):
    # G' of degree 0 or less has no roots: only x = -1 and 1 remain.
    assert np.array_equal(critical_cosines(np.array(r)), [-1.0, 1.0])


def test_symbol_min_matches_dense_grid(design1, design2, design3):
    # T_7(cos u) + 0.3: Chebyshev coefficients a_0 = 0.3, a_7 = 1.
    chebyshev = np.zeros(15)
    chebyshev[[0, 14]] = 0.5
    chebyshev[7] = 0.3
    cases = [r.prototype.taps for r in (design1, design2, design3)] + [chebyshev]
    for g in cases:
        m = find_gamma(g)[1]
        assert m == pytest.approx(float(symbol_on_grid(g).min()),
                                  abs=1e-12 * float(np.max(np.abs(g))))
    assert find_gamma(chebyshev)[1] == pytest.approx(-0.7, abs=1e-12)


def test_section_eigenvalues_lie_above_symbol_min(design1):
    # Grenander-Szego: every finite section's spectrum lies in [min G, max G],
    # so the lift -m covers every Q; by interlacing, a longer section's
    # lowest eigenvalue is lower, approaching m from above.
    stop = next(b for b in to_prototype_spec(design1_spec()) if b.desired == 0.0)
    g = design1.prototype.taps
    gamma, m, _ = find_gamma(g)
    lams = []
    for q in (24, 100):
        lam = float(np.linalg.eigvalsh(dense_operator(g, q)).min())
        assert m <= lam < 0.0
        assert gamma > -lam
        lams.append(lam)
    assert lams[1] <= lams[0]
    assert gamma == (1.0 + GAMMA_MARGIN) * -m
    # The plan is exact: at a count that meets the bands, G dips at most
    # q* = 1/weight below zero, and the lift is (1 + GAMMA_MARGIN) times that dip.
    assert 0.0 < gamma <= (1.0 + GAMMA_MARGIN) / stop.weight


def test_cholesky_fails_below_lift_and_succeeds_at_gamma(design1):
    g = design1.prototype.taps
    order = (len(g) + 1) // 2
    expansion = max(DEFAULT_EXPANSION_FACTOR * order, MIN_EXPANSION)
    gamma, m, _ = find_gamma(g)
    assert m < 0.0
    with pytest.raises(FactorizationError):
        cholesky_banded(g, expansion, 0.5 * -m)
    cholesky_banded(g, expansion, gamma)


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
    gamma, m, t = find_gamma(g)
    assert m == pytest.approx(0.0, abs=1e-15)
    assert gamma == PIVOT_FLOOR_FACTOR * 6.0 - m
    # Its zeros lie on the circle: no expansion resolves them geometrically,
    # so Q stays at the floor and Newton recovers the factor.
    assert t == 0.0
    w, diag = spectral_factorize(g, newton=True)
    assert diag.refined and diag.symbol_min == m
    assert diag.expansion == MIN_EXPANSION
    assert diag.autocorr_residual <= 1e-12


@pytest.mark.parametrize("c", [[1.0, 1.0], [1.0, 0.0, 1.0], "pencil"])
def test_zeros_on_the_circle_keep_the_floor_expansion(c):
    # Each symbol touches zero, so the pivot floor sets the lift and the
    # zeros of G + gamma sit about 1e-7 from the circle; Q sized for that
    # distance would run to 6e7-6e8 (GBs of section).  They count as on
    # the circle: the floor stands, and Newton recovers the factor.
    c = design_pencil().taps if c == "pencil" else np.array(c)
    g = autocorrelation(c)
    assert find_gamma(g)[2] == 0.0
    w, diag = spectral_factorize(g, newton=True)
    assert diag.expansion == max(DEFAULT_EXPANSION_FACTOR * len(c), MIN_EXPANSION)
    assert diag.refined
    assert np.max(np.abs(w.c - c)) <= 1e-7


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
        gamma = find_gamma(g)[0]
        q = max(DEFAULT_EXPANSION_FACTOR * n, MIN_EXPANSION)
        full = np.repeat(g[:n, None], 2 * q + n, axis=1)
        full[-1, :] += gamma
        reference = factor_column(
            scipy.linalg.cholesky_banded(full, lower=False, check_finite=False),
            q + n - 1)
        column = factor_column(cholesky_banded(g, q, gamma), q + n - 1)
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
    # The reflection keeps the sign it is given; spectral_factorize owns the
    # sign and normalizes it once, at its end.
    assert np.array_equal(reflect_into_disc(-c), -flipped)
    weights, _ = spectral_factorize(autocorrelation(-c), newton=True)
    assert weights.c.sum() > 0.0
    assert weights.c == pytest.approx(flipped, abs=1e-9)


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
    fact = cholesky_banded(np.array([4.0]), 4, 0.0)
    assert fact[-1, :] == pytest.approx(np.full(5, 2.0))


def test_factor_reconstructs_operator():
    g = np.array([0.5, 1.25, 0.5])
    full = dense_from_banded(cholesky_banded(g, 60, 0.0))
    assert np.max(np.abs(full.T @ full - dense_operator(g, 60))) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_factor_reconstructs_random_autocorrelations(n, seed):
    c = make_min_phase(np.random.default_rng(seed), n)
    g = autocorrelation(c)
    full = dense_from_banded(cholesky_banded(g, 10, 0.0))
    assert np.max(np.abs(full.T @ full - dense_operator(g, 10))) <= 1e-10


def test_extraction_recovers_two_element_oracle():
    g = np.array([0.5, 1.25, 0.5])
    # The last column of the factor holds (c_1, c_0) ...
    assert cholesky_banded(g, 60, 0.0)[::-1, -1] == pytest.approx([1.0, 0.5], abs=1e-6)
    # ... which spectral_factorize reads at its own expansion.
    weights, diag = spectral_factorize(g)
    assert weights.c == pytest.approx([1.0, 0.5], abs=1e-12)
    assert diag.expansion == MIN_EXPANSION and weights.gamma_used == 0.0


def test_extraction_trivial_single_tap():
    assert cholesky_banded(np.array([1.0]), 30, 0.0)[::-1, -1] == pytest.approx([1.0])
    weights, _ = spectral_factorize(np.array([1.0]))
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
    # Its zero -0.5 needs Q = 2 by the symbol; the floor is 176.
    _, diag = spectral_factorize(autocorrelation([1.0, 0.5]))
    assert diag.expansion == MIN_EXPANSION


def test_expansion_is_sized_from_the_outermost_zero():
    # A zero at -0.99, t = 0.01: Q = ln(4/t) / (2t) keeps exp(-2Qt) <= t/4,
    # above the floor; the raw extraction then meets that bound.
    c = np.array([1.0, 0.99])
    g = autocorrelation(c)
    t = find_gamma(g)[2]
    assert t == pytest.approx(-math.log(0.99), rel=1e-3)
    w, diag = spectral_factorize(g)
    assert diag.expansion == math.ceil(math.log(4.0 / t) / (2.0 * t)) > MIN_EXPANSION
    assert np.max(np.abs(w.c - c)) <= t / 4.0


def test_outermost_zero_distance_matches_the_roots():
    # Lifted taps put zeros of the factor close to the circle, where the
    # quadratic model of G + gamma at its minima is sharp: within 1 % of
    # -ln(radius) up to 0.05, within 20 % beyond.
    rng = np.random.default_rng(13)
    close = 0
    for _ in range(40):
        n = int(rng.integers(3, 25))
        g = lifted_taps(rng, n)
        t = find_gamma(g)[2]
        w, diag = spectral_factorize(g, newton=True)
        assert diag.refined
        outermost = -math.log(float(np.max(np.abs(np.roots(w.c)))))
        close += outermost < 0.05
        assert t == pytest.approx(outermost, rel=0.01 if outermost < 0.05 else 0.2), n
    assert close >= 20


def test_section_is_factored_in_place(monkeypatch):
    seen = []
    original = scipy.linalg.cholesky_banded

    def recording(ab, **kwargs):
        seen.append((ab, kwargs))
        return original(ab, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", recording)
    g = autocorrelation(make_min_phase(np.random.default_rng(3), 9))
    fact = cholesky_banded(g, 300, 0.0)
    [(ab, kwargs)] = seen
    assert ab.flags.f_contiguous and kwargs["overwrite_ab"]
    assert np.shares_memory(fact, ab)


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
        raw = cholesky_banded(g, factor * 12, 0.0)[::-1, -1]
        resids.append(float(np.max(np.abs(autocorrelation(raw) - g))))
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
