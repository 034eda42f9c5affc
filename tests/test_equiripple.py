import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import chebyshev as cheb

import mparray.equiripple as equiripple_module
from mparray import (PrototypeBand, design_prototype, estimate_order,
                     remez_design, to_prototype_spec)
from mparray import design1_spec, design2_spec
from mparray.equiripple import _bary_eval, _bary_weights, _extrema_candidates

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
    scan = equioscillation_extrema(proto)
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
    scan = equioscillation_extrema(proto)
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
    p1 = to_prototype_spec(design1_spec())
    p2 = to_prototype_spec(design2_spec())
    assert abs(estimate_order(p1.bands, p1.delta_pass, p1.delta_stop) - 6) <= 3
    assert abs(estimate_order(p2.bands, p2.delta_pass, p2.delta_stop) - 14) <= 4


def test_estimate_order_monotone_in_tolerances():
    bands = (PrototypeBand(0.0, 1.0, 1.0, 1.0),
             PrototypeBand(1.5, math.pi, 0.0, 1.0))
    tight = estimate_order(bands, 1e-3, 1e-5)
    loose = estimate_order(bands, 1e-2, 1e-3)
    assert loose <= tight


def test_estimate_order_rejects_zero_transition():
    bands = (PrototypeBand(0.0, 1.0, 1.0, 1.0),
             PrototypeBand(1.0, math.pi, 0.0, 1.0))
    with pytest.raises(ValueError, match="transition"):
        estimate_order(bands, 1e-2, 1e-3)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 7))
def test_lowpass_family_meets_alternation_bound(half_order):
    bands = [PrototypeBand(0.0, 0.35 * math.pi, 1.0, 1.0),
             PrototypeBand(0.62 * math.pi, math.pi, 0.0, 2.0)]
    proto = remez_design(bands, half_order)
    scan = equioscillation_extrema(proto)
    assert count_alternations(scan, proto.delta) >= half_order + 2


def _refine_peak_loop(u3, e3, err_fn, lo, hi, rounds):
    """One peak at a time with scalar calls: the reference for the batched finder."""
    best_u, best_e = u3[1], e3[1]
    tri_u, tri_e = list(u3), list(e3)
    for _ in range(rounds):
        u0, u1, u2 = tri_u
        e0, e1, e2 = tri_e
        d1 = (e1 - e0) / (u1 - u0)
        c2 = ((e2 - e1) / (u2 - u1) - d1) / (u2 - u0)
        if c2 == 0.0 or not math.isfinite(c2):
            break
        v = 0.5 * (u0 + u1) - d1 / (2.0 * c2)
        if not (lo <= v <= hi):
            break
        ev = float(err_fn(np.array([v]))[0])
        if abs(ev) > abs(best_e):
            best_u, best_e = v, ev
        h = 0.25 * (u2 - u0)
        if h <= 0.0:
            break
        ul, ur = max(lo, best_u - h), min(hi, best_u + h)
        if not (ul < best_u < ur):
            break
        tri_u = [ul, best_u, ur]
        tri_e = [float(err_fn(np.array([ul]))[0]), best_e, float(err_fn(np.array([ur]))[0])]
    return best_u, best_e


def _wavy(u):
    return np.cos(40.0 * u) * (1.0 + 0.3 * np.cos(3.0 * u)) + 0.01 * u


def _steps(u):  # plateaus: refined values often tie the best one so far
    return np.round(8.0 * np.sin(997.0 * u)) / 8.0


def _hill(u):  # apex at u = 5: the second vertex of every peak leaves the band
    return 100.0 - (u - 5.0) ** 2


# Per-band scale of the error, as band weights give it; 1.0 leaves one band as is.
_BAND_SCALE = np.array([1.0, 2.5, 0.7])


@pytest.mark.parametrize("grid_fn, err_fn", [(_wavy, _wavy), (_steps, _steps), (_wavy, _hill)])
@pytest.mark.parametrize("rounds", [2, 3, 4])
@pytest.mark.parametrize("lo, hi, points", [
    (0.0, math.pi, 1500), (0.37, 1.91, 201),
    pytest.param((0.37, 1.5), (1.2, math.pi), (300, 500), id="two-bands"),
    # the last two bands share the edge u = 2.0, as touching stop bands do
    pytest.param((0.0, 1.2, 2.0), (0.6, 2.0, math.pi), (250, 301, 400), id="three-bands-touching"),
])
def test_batched_finder_matches_scalar_loop(grid_fn, err_fn, rounds, lo, hi, points):
    lo, hi, points = np.atleast_1d(lo), np.atleast_1d(hi), np.atleast_1d(points)
    grids = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, points)]
    band = np.repeat(np.arange(len(grids)), points)

    def band_err(u, bi):
        return _BAND_SCALE[bi] * err_fn(u)

    us = np.concatenate(grids)
    es = _BAND_SCALE[band] * grid_fn(us)
    got = _extrema_candidates(us, es, points, band_err, rounds=rounds)
    want = []
    for bi, ub in enumerate(grids):
        eb = _BAND_SCALE[bi] * grid_fn(ub)
        want.append((ub[0], eb[0], bi))
        for i in range(1, len(ub) - 1):
            if abs(eb[i]) >= abs(eb[i - 1]) and abs(eb[i]) >= abs(eb[i + 1]):
                want.append(_refine_peak_loop(
                    ub[i - 1:i + 2], eb[i - 1:i + 2],
                    lambda u, _b=bi: band_err(u, np.full(len(u), _b)),
                    ub[0], ub[-1], rounds) + (bi,))
        want.append((ub[-1], eb[-1], bi))
    assert len(got) == len(want) > 20
    assert np.array_equal(np.array(got), np.array(want, float))


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


def test_finder_batches_err_fn_calls(monkeypatch):
    # Per exchange iteration: one evaluation on the working grid, then per
    # refinement round one on the vertices and one on the brackets of the
    # peaks of all bands together, whatever the band count.
    rounds = 4
    plans = {2: ([PrototypeBand(0.0, 0.4 * math.pi, 1.0, 1.0),
                  PrototypeBand(0.6 * math.pi, math.pi, 0.0, 2.0)], 9),
             3: ([PrototypeBand(0.0, 0.25 * math.pi, 0.0, 1.0),
                  PrototypeBand(0.4 * math.pi, 0.6 * math.pi, 1.0, 1.0),
                  PrototypeBand(0.75 * math.pi, math.pi, 0.0, 3.0)], 12)}
    for count, (bands, half_order) in plans.items():
        per_iteration = _bary_calls_per_iteration(monkeypatch, bands, half_order)
        assert len(per_iteration) >= 2, count
        assert max(per_iteration) <= 1 + 2 * rounds, (count, per_iteration)
        # the refinement ran: the grid evaluation alone would be one call
        assert max(per_iteration) >= 3, (count, per_iteration)


def test_finder_locates_chebyshev_extrema():
    n = 7
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0

    def err(u):  # T_n(cos u) = cos(n u): interior extrema at k pi / n, |e| = 1
        return cheb.chebval(np.cos(u), coeffs)

    us = np.linspace(0.0, math.pi, 1000)  # no extremum falls on a grid point
    exact = np.arange(1, n) * math.pi / n
    assert np.min(np.abs(us[:, None] - exact[None, :]), axis=0).max() > 1e-4
    cands = np.array(_extrema_candidates(us, err(us), [len(us)],
                                         lambda u, _: err(u), rounds=3))[1:-1]
    assert len(cands) == n - 1
    assert np.max(np.abs(cands[:, 0] - exact)) <= 1e-12
    assert np.max(np.abs(np.abs(cands[:, 1]) - 1.0)) <= 1e-15


# Node-by-node reference for the array forms: same arithmetic, same order.
def _bary_weights_loop(nodes):
    w = np.empty(len(nodes))
    for k in range(len(nodes)):
        diff = nodes[k] - nodes
        diff[k] = 1.0
        w[k] = 1.0 / np.prod(diff)
    return w


def _bary_eval_loop(nodes, values, weights, x):
    x = np.atleast_1d(np.asarray(x, float))
    num = np.zeros(len(x))
    den = np.zeros(len(x))
    exact = np.full(len(x), -1)
    for k in range(len(nodes)):
        d = x - nodes[k]
        hit = d == 0.0
        exact[hit] = k
        d[hit] = 1.0
        t = weights[k] / d
        num += t * values[k]
        den += t
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
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
    for nodes, _, _ in _bary_draws():
        assert np.array_equal(_bary_weights(nodes), _bary_weights_loop(nodes), equal_nan=True)


def test_bary_eval_matches_scalar_loop():
    hits = few = 0
    for nodes, values, x in _bary_draws():
        w = _bary_weights_loop(nodes)
        got = _bary_eval(nodes, values, w, x)
        assert np.array_equal(got, _bary_eval_loop(nodes, values, w, x), equal_nan=True)
        hits += bool(np.isin(x, nodes).any())
        few += len(x) <= 2
    assert hits >= 40 and few >= 100  # the draws reach both special cases
