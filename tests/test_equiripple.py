import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb

import mparray.equiripple as equiripple_module
from mparray import (BandSpec, DesignSpec, PrototypeBand, design1_spec, design2_spec,
                     design3_spec, remez_design)
from mparray.equiripple import (RemezConvergenceError, _band_extrema, _bary_eval,
                                _bary_weights, _chebyshev_points, _derivative_roots,
                                _leveled_delta, _scaled_reference, estimate_order)
from mparray.prototype import design_prototype, to_prototype_spec

from equioscillation import (amplitude_response, cosine_coefficients,
                             count_alternations, equioscillation_extrema)


def test_constant_band_fits_exactly():
    proto = remez_design([PrototypeBand(0.0, math.pi, 1.0, 1.0)], 0)
    assert proto.taps == pytest.approx([1.0], abs=1e-14)
    assert proto.delta <= 1e-13


def test_amplitude_response_known_values():
    assert amplitude_response(np.array([1.0]), np.array([0.3]))[0] == pytest.approx(1.0)
    taps = np.array([0.5, 1.0, 0.5])
    u = np.array([0.0, math.pi / 2, math.pi])
    # 1 + cos(u) exactly
    assert amplitude_response(taps, u) == pytest.approx([2.0, 1.0, 0.0], abs=1e-15)


def test_amplitude_response_rejects_asymmetric_taps():
    with pytest.raises(ValueError, match="symmetric"):
        amplitude_response(np.array([1.0, 0.0, 0.5]), np.array([0.0]))


@given(st.integers(0, 5), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
       st.floats(0.0, math.pi))
def test_amplitude_response_is_even(half, seedvals, u):
    a = np.array(seedvals[:half + 1] + [0.0] * max(0, half + 1 - len(seedvals)))
    taps = np.concatenate([a[:0:-1], a]) if half else a[:1]
    left = amplitude_response(taps, np.array([-u]))
    right = amplitude_response(taps, np.array([u]))
    assert left[0] == pytest.approx(right[0], abs=1e-12)


def test_lowpass_seven_taps_equioscillates():
    bands = [PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
             PrototypeBand(0.6 * math.pi, math.pi, 0.0, 1.0)]
    proto = remez_design(bands, 3)
    assert np.max(np.abs(proto.taps - proto.taps[::-1])) <= 1e-12
    # both bands hit the same weighted deviation
    scan = equioscillation_extrema(proto, bands)
    peaks = scan.band_peaks()
    assert peaks[0] == pytest.approx(peaks[1], rel=1e-8)
    assert count_alternations(scan, proto.delta) >= 5


def test_designed_taps_are_symmetric(design2):
    taps = design2.prototype.taps
    assert np.max(np.abs(taps - taps[::-1])) <= 1e-12


def test_alternation_count_rejects_wrong_level():
    bands = [PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
             PrototypeBand(0.6 * math.pi, math.pi, 0.0, 1.0)]
    proto = remez_design(bands, 3)
    scan = equioscillation_extrema(proto, bands)
    assert count_alternations(scan, proto.delta * 0.5) == 0


def test_delta_never_grows_with_order():
    bands = [PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
             PrototypeBand(0.6 * math.pi, math.pi, 0.0, 1.0)]
    deltas = [remez_design(bands, n).delta for n in range(2, 9)]
    for lo, hi in zip(deltas, deltas[1:]):
        assert hi <= lo * (1.0 + 1e-9)


def test_chebyshev_solution_is_locally_optimal():
    bands = [PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
             PrototypeBand(0.6 * math.pi, math.pi, 0.0, 1.0)]
    proto = remez_design(bands, 4)
    a = cosine_coefficients(proto.taps)
    grid = np.concatenate([np.linspace(b.u_lo, b.u_hi, 4096) for b in bands])
    weights = np.concatenate([np.full(4096, b.weight) for b in bands])
    desired = np.concatenate([np.full(4096, b.desired) for b in bands])

    def max_err(coeffs):
        return np.max(np.abs(weights * (cheb.chebval(np.cos(grid), coeffs) - desired)))

    base = max_err(a)
    for k in range(len(a)):
        for sign in (+1.0, -1.0):
            bumped = a.copy()
            bumped[k] += sign * 1e-4
            assert max_err(bumped) >= base * (1.0 - 1e-9)


def test_all_degenerate_bands_rejected():
    with pytest.raises(ValueError, match="u_lo < u_hi"):
        remez_design([PrototypeBand(0.0, 0.0, 1.0, 1.0)], 2)
    with pytest.raises(ValueError, match="u_lo < u_hi"):
        remez_design([PrototypeBand(0.0, 0.0, 1.0, 1.0),
                      PrototypeBand(0.1 * math.pi, math.pi, 0.0, 1.0)], 4)


def test_unsorted_bands_rejected():
    with pytest.raises(ValueError, match="sorted"):
        remez_design([PrototypeBand(0.6 * math.pi, math.pi, 0.0, 1.0),
                      PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0)], 3)


def test_estimate_order_brackets_reference_designs():
    assert abs(estimate_order(to_prototype_spec(design1_spec())) - 6) <= 3
    assert abs(estimate_order(to_prototype_spec(design2_spec())) - 14) <= 4


def _lowpass_plan(delta_pass, delta_stop, stop_lo=1.5):
    """A two-band plan weighted 1/delta, as to_prototype_spec weights it."""
    return (PrototypeBand(0.0, 1.0, 1.0, 1.0 / delta_pass),
            PrototypeBand(stop_lo, math.pi, 0.0, 1.0 / delta_stop))


def test_estimate_order_monotone_in_tolerances():
    tight = estimate_order(_lowpass_plan(1e-3, 1e-5))
    loose = estimate_order(_lowpass_plan(1e-2, 1e-3))
    assert loose <= tight


def test_estimate_order_rejects_zero_transition():
    with pytest.raises(ValueError, match="transition"):
        estimate_order(_lowpass_plan(1e-2, 1e-3, stop_lo=1.0))


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 7))
def test_lowpass_family_meets_alternation_bound(half_order):
    bands = [PrototypeBand(0.0, 0.35 * math.pi, 1.0, 1.0),
             PrototypeBand(0.62 * math.pi, math.pi, 0.0, 2.0)]
    proto = remez_design(bands, half_order)
    scan = equioscillation_extrema(proto, bands)
    assert count_alternations(scan, proto.delta) >= half_order + 2


def _wavy(u):
    return np.cos(17.0 * u) * (1.0 + 0.3 * np.cos(3.0 * u)) + 0.01 * u


def _steps(u):  # plateaus: the polynomial through them swings between its data
    return np.round(8.0 * np.sin(997.0 * u)) / 8.0


def _hill(u):  # apex at u = 5: no peak of its own in any band
    return 100.0 - (u - 5.0) ** 2


# Per-band scale of the error, as band weights give it; 1.0 leaves one band as is.
_BAND_SCALE = np.array([1.0, 2.5, 0.7])


def _series_matrix(n):
    return np.linalg.inv(cheb.chebvander(_chebyshev_points(n), n))


# With err_fn unlike amp_fn the finder must place its candidates by A alone
# and read their errors from band_err alone.
@pytest.mark.parametrize("amp_fn, err_fn", [(_wavy, _wavy), (_steps, _steps), (_wavy, _hill)])
@pytest.mark.parametrize("tens", [2, 3, 4])  # half orders 20, 30 and 40
@pytest.mark.parametrize("lo, hi, points", [
    (0.0, math.pi, 1500), (0.37, 1.91, 201),
    pytest.param((0.37, 1.5), (1.2, math.pi), (300, 500), id="two-bands"),
    # the last two bands share the edge u = 2.0, as touching stop bands do
    pytest.param((0.0, 1.2, 2.0), (0.6, 2.0, math.pi), (250, 301, 400), id="three-bands-touching"),
])
def test_batched_finder_matches_scalar_loop(amp_fn, err_fn, tens, lo, hi, points):
    # A is the degree-n polynomial through amp_fn at the Chebyshev points of
    # [-1, 1], evaluated as the exchange evaluates it.  The reference takes
    # one band and one point at a time: it fits A's series on the band's
    # x-interval to ``points`` samples and reads the errors one by one.  A
    # real root of A' is well placed, so the finder must hold it.  The real
    # part of a complex root is a spurious candidate, whose place the
    # rounding of the series decides; it only has to lie inside its band.
    n = 10 * tens
    lo, hi, points = np.atleast_1d(lo), np.atleast_1d(hi), np.atleast_1d(points)
    nodes = _chebyshev_points(n)
    values = amp_fn(np.arccos(nodes))

    def amp(x):
        return _bary_eval(nodes, values, _bary_weights(nodes)[0], x)

    def band_err(u, bi):
        return _BAND_SCALE[bi] * err_fn(u)

    got_u, got_e, got_band = _band_extrema(amp, band_err, lo, hi, _series_matrix(n))
    assert np.all(np.diff(got_band) >= 0) and set(got_band) == set(range(len(lo)))
    interior = []
    for bi, (a, b, k) in enumerate(zip(lo, hi, points)):
        x = np.cos(np.linspace(a, b, k))
        fit = cheb.Chebyshev.fit(x, [amp(np.array([v]))[0] for v in x], n,
                                 domain=[math.cos(b), math.cos(a)])
        r = fit.deriv().roots()
        u = np.arccos(np.clip(r.real[r.imag == 0.0], -1.0, 1.0))
        want_u = np.array([a, *np.sort(u[(a < u) & (u < b)]), b])
        want_e = np.array([band_err(np.array([v]), bi)[0] for v in want_u])
        mine_u, mine_e = got_u[got_band == bi], got_e[got_band == bi]
        assert mine_u[0] == a and mine_u[-1] == b and np.all(np.diff(mine_u) >= 0)
        assert np.all((a < mine_u[1:-1]) & (mine_u[1:-1] < b))
        near = np.argmin(np.abs(mine_u[:, None] - want_u), axis=0)
        assert np.max(np.abs(mine_u[near] - want_u)) <= 1e-11
        assert np.max(np.abs(mine_e[near] - want_e) / np.maximum(1.0, np.abs(want_e))) <= 1e-11
        interior.append(len(want_u) - 2)
    assert min(interior) >= 1, interior


def test_finder_locates_chebyshev_extrema():
    n = 7
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0

    def amp(x):  # T_n(cos u) = cos(n u): interior extrema at k pi / n, |e| = 1
        return cheb.chebval(x, coeffs)

    def band_err(u, _):
        return amp(np.cos(u))

    exact = np.arange(1, n) * math.pi / n
    u, e, band = _band_extrema(amp, band_err, np.array([0.0]), np.array([math.pi]),
                               _series_matrix(n))
    assert np.array_equal(band, np.zeros(n + 1))
    assert u[0] == 0.0 and u[-1] == math.pi
    assert np.max(np.abs(u[1:-1] - exact)) <= 1e-12
    assert np.max(np.abs(np.abs(e[1:-1]) - 1.0)) <= 1e-15
    # Split into two bands, each keeps the extrema inside its own edges.
    lo, hi = np.array([0.1, 1.5]), np.array([1.2, math.pi])
    u, e, band = _band_extrema(amp, band_err, lo, hi, _series_matrix(n))
    for bi in range(2):
        inside = exact[(lo[bi] < exact) & (exact < hi[bi])]
        assert np.sum(band == bi) == len(inside) + 2
        assert np.max(np.abs(u[band == bi][1:-1] - inside)) <= 1e-12


def _bary_calls_per_iteration(monkeypatch, bands, half_order):
    """Run remez_design, counting _bary_eval calls between successive levelings."""
    segments = []
    real_level, real_eval = equiripple_module._leveled_delta, equiripple_module._bary_eval

    def level(*args):
        segments.append(0)
        return real_level(*args)

    def evaluate(*args):
        segments[-1] += 1
        return real_eval(*args)

    monkeypatch.setattr(equiripple_module, "_leveled_delta", level)
    monkeypatch.setattr(equiripple_module, "_bary_eval", evaluate)
    proto = remez_design(bands, half_order)
    monkeypatch.undo()
    assert len(segments) == proto.iterations + 1  # the last leveling makes the taps
    return segments[:-1]


# Two- and three-band plans with their half orders, keyed by band count.
_PLANS = {2: ([PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
               PrototypeBand(0.6 * math.pi, math.pi, 0.0, 2.0)], 9),
          3: ([PrototypeBand(0.0, 0.25 * math.pi, 0.0, 1.0),
               PrototypeBand(0.4 * math.pi, 0.6 * math.pi, 1.0, 1.0),
               PrototypeBand(0.75 * math.pi, math.pi, 0.0, 3.0)], 12)}


def test_finder_batches_err_fn_calls(monkeypatch):
    # Per exchange iteration, whatever the band count: one evaluation at the
    # Chebyshev points of every band, one at every band's edges and roots of A'.
    for count, (bands, half_order) in _PLANS.items():
        per_iteration = _bary_calls_per_iteration(monkeypatch, bands, half_order)
        assert len(per_iteration) >= 2, count
        assert per_iteration == [2] * len(per_iteration), (count, per_iteration)


def test_exchange_stops_within_its_own_level(design1, design2, design3):
    # The exchange reads its error at the exact extrema, so its 1e-9 stop
    # rule bounds the true excess ripple, read here by the dense scan.  Each
    # winning count was designed on the untilted plan.
    for result, make_spec in ((design1, design1_spec), (design2, design2_spec),
                              (design3, design3_spec)):
        proto = result.prototype
        peaks = equioscillation_extrema(proto, to_prototype_spec(make_spec())).band_peaks()
        assert np.all(peaks <= proto.delta * (1.0 + 1e-9)), peaks / proto.delta - 1.0


def test_non_finite_interpolant_is_a_convergence_error(monkeypatch):
    def no_roots(*args):
        raise AssertionError("a root was taken of a non-finite series")

    monkeypatch.setattr(equiripple_module, "_leveled_delta", lambda *args: (math.nan, 0.0))
    monkeypatch.setattr(equiripple_module, "_derivative_roots", no_roots)
    monkeypatch.setattr(equiripple_module.np.linalg, "eigvals", no_roots)
    bands = [PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
             PrototypeBand(0.6 * math.pi, math.pi, 0.0, 2.0)]
    with pytest.raises(RemezConvergenceError, match="non-finite interpolant"):
        remez_design(bands, 6)


def _roots_row_by_row(series):
    """Reference for _derivative_roots: chebroots(chebder(row)) for one row at a time."""
    out = np.full((len(series), max(series.shape[1] - 2, 0)), np.nan)
    for i, row in enumerate(series):
        r = np.real(cheb.chebroots(cheb.chebder(row)))
        out[i, :len(r)] = r
    return out


def test_stacked_roots_match_chebroots_row_by_row():
    # One eigensolve over the stacked colleague matrices gives every row the
    # roots chebroots gives it alone, bit for bit.  Row 1 ends in a 0, so
    # its derivative's leading coefficient is exactly 0 and chebroots trims
    # it: that row has fewer roots than the ordinary rows beside it.
    rng = np.random.default_rng(20261020)
    for rows in (1, 2, 3):
        for length in range(1, 46):
            series = rng.normal(size=(rows, length)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
            if rows > 1 and length >= 3:
                series[1, -1] = 0.0
            got = _derivative_roots(series)
            assert got.shape == (rows, max(length - 2, 0))
            assert np.array_equal(got, _roots_row_by_row(series), equal_nan=True)
            full = np.sum(~np.isnan(got), axis=1)
            assert full[0] == max(length - 2, 0)
            if rows > 1 and length >= 3:
                assert full[1] < full[0]


def test_stacked_roots_leave_the_exchange_unchanged(monkeypatch):
    # A whole design with every root taken row by row is byte-equal.
    for count, (bands, half_order) in _PLANS.items():
        stacked = remez_design(bands, half_order)
        monkeypatch.setattr(equiripple_module, "_derivative_roots", _roots_row_by_row)
        row_by_row = remez_design(bands, half_order)
        monkeypatch.undo()
        assert stacked.taps.tobytes() == row_by_row.taps.tobytes(), count
        assert stacked.delta == row_by_row.delta, count
        assert stacked.iterations == row_by_row.iterations >= 2, count


# Node-by-node reference for the array forms: same arithmetic, same order.
def _bary_weights_loop(nodes):
    w = np.empty(len(nodes))
    for k in range(len(nodes)):
        diff = nodes[k] - nodes
        diff[k] = 1.0
        w[k] = 1.0 / np.prod(diff)
    return w


def _bary_eval_loop(nodes, values, weights, x):
    # The first form: l(x) sum_k w_k f_k / (x - x_k), l(x) = prod_k (x - x_k).
    x = np.atleast_1d(np.asarray(x, float))
    num = np.zeros(len(x))
    ell = np.ones(len(x))
    exact = np.full(len(x), -1)
    for k in range(len(nodes)):
        d = x - nodes[k]
        hit = d == 0.0
        exact[hit] = k
        d[hit] = 1.0
        num += weights[k] / d * values[k]
        ell *= d
    out = num * ell
    hits = exact >= 0
    if np.any(hits):
        out[hits] = values[exact[hits]]
    return out


def _bary_draws():
    """Seeded (nodes, values, x) draws: 1-40 nodes, 1-900 points, some on a node."""
    rng = np.random.default_rng(20261018)
    for i in range(400):
        nodes = np.cos(np.sort(rng.uniform(0.0, math.pi, int(rng.integers(1, 41)))))
        values = rng.normal(size=len(nodes))
        points = (1, 2, 3)[i % 3] if i % 2 else int(rng.integers(1, 901))
        x = np.cos(rng.uniform(0.0, math.pi, points))
        if i % 5 == 0:  # exact node hits
            j = rng.integers(0, points, size=max(1, points // 4))
            x[j] = nodes[rng.integers(0, len(nodes), size=len(j))]
        yield nodes, values, x


def test_bary_weights_match_scalar_loop():
    # One difference matrix gives the weights of the reference points and,
    # from its leading block, those of the interpolation nodes.
    for nodes, _, _ in _bary_draws():
        full, head = _bary_weights(nodes)
        assert np.array_equal(full, _bary_weights_loop(nodes), equal_nan=True)
        assert np.array_equal(head, _bary_weights_loop(nodes[:-1]), equal_nan=True)


def test_bary_eval_matches_scalar_loop():
    hits = few = 0
    for nodes, values, x in _bary_draws():
        w = _bary_weights_loop(nodes)
        got = _bary_eval(nodes, values, w, x)
        assert np.array_equal(got, _bary_eval_loop(nodes, values, w, x), equal_nan=True)
        hits += bool(np.isin(x, nodes).any())
        few += len(x) <= 2
    assert hits >= 40 and few >= 100  # the draws reach both special cases


def test_bary_eval_extrapolates_stably():
    # The final taps read A at Chebyshev points of [-1, 1], some of them
    # outside the hull of the reference nodes (past a stop band that ends
    # short of pi).  There the evaluation must still be backward stable: it
    # is held to the exact Lagrange interpolant of the same double data,
    # relative to the size of the terms, sum_j |l_j(x) f_j|.
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for n in range(8, 25):
        nodes = np.sort(rng.uniform(0.2, 1.0, n))
        values = rng.normal(size=n)
        x = np.concatenate([rng.uniform(-1.0, 0.2, 6), [-1.0]])
        got = _bary_eval(nodes, values, _bary_weights(nodes)[0], x)
        exact_nodes = [Fraction(v) for v in nodes]
        for xi, gi in zip(x, got):
            terms = []
            for j, (xj, fj) in enumerate(zip(exact_nodes, values)):
                ell = Fraction(fj)
                for k, xk in enumerate(exact_nodes):
                    if k != j:
                        ell *= (Fraction(xi) - xk) / (xj - xk)
                terms.append(ell)
            scale = float(sum(abs(t) for t in terms))
            worst = max(worst, abs(gi - float(sum(terms))) / scale)
    assert worst <= 1e-12, worst


def _edges(plan):
    return np.array([b.u_lo for b in plan]), np.array([b.u_hi for b in plan])


# Converged references to scale: 2-band plans, 3-band band-pass plans (at
# 12 elements the pass band of the second holds a single node) and two stop
# bands that touch at u = 2.0.
_SCALED = {
    "design1": (to_prototype_spec(design1_spec()), 6),
    "design2": (to_prototype_spec(design2_spec()), 14),
    "bandpass": (_PLANS[3][0], 13),
    "bandpass-one-pass-node": (to_prototype_spec(DesignSpec(0.5, (
        BandSpec(0.0, 1.025411625891609, "stop", max_level_db=-26.41145634128804),
        BandSpec(1.5191336435981924, 1.8340307980888764, "pass", ripple_db=1.842046690529218),
        BandSpec(2.32775281579546, math.pi, "stop", max_level_db=-27.22315537626411)))), 12),
    "touching-stops": (to_prototype_spec(DesignSpec(0.5, (
        BandSpec(0.0, 0.6, "pass", ripple_db=1.0),
        BandSpec(1.2, 2.0, "stop", max_level_db=-30.0),
        BandSpec(2.0, math.pi, "stop", max_level_db=-45.0)))), 22),
}


def _assert_valid_reference(u, band, m, lo, hi):
    assert len(u) == len(band) == m
    assert np.all(np.diff(u) > 0.0)
    assert np.all(np.diff(band) >= 0)
    assert np.all((lo[band] <= u) & (u <= hi[band]))


@pytest.mark.parametrize("name", sorted(_SCALED))
def test_scaled_reference_is_increasing_and_in_band(name):
    plan, order = _SCALED[name]
    lo, hi = _edges(plan)
    ref = design_prototype(plan, order).reference
    m = len(ref[0])
    assert m == order + 1
    _assert_valid_reference(*ref, m, lo, hi)
    for new_m in (m - 1, m + 1):
        _assert_valid_reference(*_scaled_reference(ref, new_m, lo, hi), new_m, lo, hi)


def test_bands_short_of_two_nodes_get_interior_points():
    # The pass band held one node and the last band none: both get evenly
    # spread interior points, the first band keeps its outer nodes.
    plan = _PLANS[3][0]
    lo, hi = _edges(plan)
    ref = (np.array([0.0, 0.2, 0.4, 0.6, lo[1] + 0.1]), np.array([0, 0, 0, 0, 1]))
    u, band = _scaled_reference(ref, 8, lo, hi)
    _assert_valid_reference(u, band, 8, lo, hi)
    assert np.bincount(band).tolist() == [6, 2]
    assert u[0] == 0.0 and u[5] == 0.6
    assert np.allclose(u[6:], lo[1] + (hi[1] - lo[1]) * np.array([1, 2]) / 3)


def _tilted(plan, side, scale):
    """The plan with only the ``side`` ("pass" or "stop") band weights divided by ``scale``."""
    return tuple(replace(b, weight=b.weight / scale) if (b.desired != 0.0) == (side == "pass")
                 else b for b in plan)


def _warm_and_cold(make_spec, order):
    """(cold, warm) pairs at ``order`` on the plan of ``make_spec``: first
    each start the order search can take there, the neighbouring counts'
    references on the plan; then, from the count's own reference, plans
    with one side's weights divided by 0.9**k, k = 1..5 (the tilts of the
    tolerance walk the search once ran; a plan whose weights move keeps
    its nodes close)."""
    plan = to_prototype_spec(make_spec())
    base = design_prototype(plan, order)
    for n in (order - 1, order + 1):
        yield base, design_prototype(plan, order, design_prototype(plan, n).reference), None
    for side in ("pass", "stop"):
        for k in range(1, 6):
            tilted = _tilted(plan, side, 0.9 ** k)
            yield (design_prototype(tilted, order),
                   design_prototype(tilted, order, base.reference), (side, k))


_COUNTS = [(design1_spec, 5), (design1_spec, 6), (design2_spec, 13), (design2_spec, 14),
           (design3_spec, 13), (design3_spec, 14)]


@pytest.mark.parametrize("make_spec, order", _COUNTS)
def test_warm_and_cold_exchanges_agree(make_spec, order):
    # Both stop within 1e-9 of the same minimax level.
    for cold, warm, tilt in _warm_and_cold(make_spec, order):
        assert abs(warm.delta - cold.delta) <= 1e-9 * cold.delta, tilt


@pytest.mark.parametrize("make_spec, order", _COUNTS)
def test_tilt_from_its_counts_reference_takes_fewer_iterations(make_spec, order):
    # Only the weights change, so the count's final reference is close.
    for cold, warm, tilt in _warm_and_cold(make_spec, order):
        if tilt is not None:
            assert warm.iterations < cold.iterations, tilt


@pytest.mark.parametrize("make_spec, order", _COUNTS)
def test_leveling_rounding_stays_inside_its_bound(make_spec, order):
    # The level of the exchange's first, second and last reference,
    # computed exactly in rationals from the same float nodes, lies within
    # the bound _leveled_delta derives for its rounding, which is far below
    # the search's decision level 1.
    plan = to_prototype_spec(make_spec())
    refs = [design_prototype(plan, order, level=level).reference
            for level in (0.0, math.inf, None)]
    for u, band in refs:
        x = np.cos(u)
        d = np.array([plan[b].desired for b in band])
        w = np.array([plan[b].weight for b in band])
        g, _ = _bary_weights(x)
        delta, slack = _leveled_delta(g, d, w)
        xf = [Fraction(v) for v in x]
        gf = [1 / math.prod(xi - xj for j, xj in enumerate(xf) if j != i)
              for i, xi in enumerate(xf)]
        exact = (sum(gi * Fraction(di) for gi, di in zip(gf, d))
                 / sum(gi * (-1) ** i / Fraction(wi) for i, (gi, wi) in enumerate(zip(gf, w))))
        assert abs(Fraction(delta) - exact) <= Fraction(slack)
        assert 0.0 < slack <= 1e-12


@pytest.mark.parametrize("make_spec, order", _COUNTS)
def test_a_decision_level_stops_the_exchange_on_its_bracket(make_spec, order):
    # Every iteration brackets the minimax level: |delta| <= level* <= peak
    # error.  Above level* the exchange returns at its first interpolant
    # whose peak error is within the level, with its taps; below, at its
    # first reference whose |delta| exceeds the level, with none.  Resumed
    # from its reference, it goes on as the uninterrupted exchange does.
    plan = to_prototype_spec(make_spec())
    cold = design_prototype(plan, order)
    for scale in (1.0 + 1e-3, 1.5, 1.0 - 1e-3, 0.5):
        early = design_prototype(plan, order, level=scale * cold.delta)
        resumed = design_prototype(plan, order, early.reference)
        assert resumed.taps.tobytes() == cold.taps.tobytes()
        if scale > 1.0:
            assert early.delta <= cold.delta * (1.0 + 1e-12)
            peak = np.max(np.abs(equioscillation_extrema(early, plan).band_peaks()))
            assert peak <= scale * cold.delta
            assert early.iterations + resumed.iterations == cold.iterations
        else:
            assert early.taps is None and early.delta > scale * cold.delta
            assert early.iterations + resumed.iterations - 1 == cold.iterations
