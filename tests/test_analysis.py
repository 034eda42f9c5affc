import json
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from mparray import (BandSpec, DesignSpec, allpass_variants,
                     apply_steering, design1_spec, design2_spec, design3_spec,
                     design_pencil, evaluate, partial_energy_profile,
                     pencil_spec, polynomial_zeros)
from mparray.analysis import ZERO_RADIUS_TOL, array_factor, pattern_metrics
from mparray.cli import PATTERN_POINTS
from mparray.prototype import measure

from conftest import make_min_phase

GRID = np.linspace(0.0, math.pi, 4096)


def test_single_element_is_isotropic():
    assert np.array_equal(array_factor([1.0], GRID), np.zeros_like(GRID))


def test_two_element_null_and_peak():
    db = array_factor([1.0, 1.0], np.array([0.0, math.pi]))
    assert db[0] == 0.0
    assert db[1] <= -300.0  # null only up to rounding of e^{j pi}

    exact = array_factor([1.0, -1.0], np.array([math.pi, 0.0]))
    assert exact[1] == -math.inf


def _linear(db):
    """A dB pattern back on a linear scale, relative to its 0 dB peak."""
    return 10.0 ** (np.asarray(db) / 20.0)


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=32),
       st.floats(-math.pi, math.pi), st.just(33))
@example(design_pencil().taps.tolist(), 0.0, 2 * PATTERN_POINTS - 1)
@settings(deadline=None)
def test_pattern_matches_direct_sum(vals, u, points):
    # The dB pattern on a grid holding u, scaled back by the direct sum's
    # peak, is the magnitude of the direct sum.  The example is the pencil
    # on the pattern.csv grid.
    c = np.array(vals)
    grid = np.append(np.linspace(-math.pi, math.pi, points), u)
    direct = np.abs([sum(ck * np.exp(1j * k * x) for k, ck in enumerate(c))
                     for x in grid])
    db = array_factor(c, grid)
    assert _linear(db) * direct.max() == pytest.approx(direct, abs=1e-12)


@given(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=8))
def test_real_weights_give_even_magnitude(vals):
    c = np.array(vals)
    pos = array_factor(c, GRID[:256])
    neg = array_factor(c, -GRID[:256])
    # Both are relative to |C(0)| = sum(c); the bound is 1e-12 on |C| itself.
    assert _linear(pos) == pytest.approx(_linear(neg), abs=1e-12 / c.sum())


_MAGNITUDE = st.floats(1e-3, 1e3)


@given(st.lists(st.builds(math.copysign, _MAGNITUDE, st.sampled_from([1.0, -1.0])),
                min_size=1, max_size=40),
       st.integers(2, 8192))
@settings(deadline=None)
def test_real_weights_give_a_bitwise_even_pattern(vals, points):
    # pattern.csv writes the u < 0 rows of real weights as the text of the
    # u > 0 rows, so the pattern on the odd grid must be even bit for bit.
    half = np.linspace(0.0, math.pi, points)
    db = array_factor(np.array(vals), np.concatenate([-half[:0:-1], half]))
    assert db.tobytes() == db[::-1].tobytes()


def test_normalization_puts_peak_at_zero_db():
    assert array_factor([0.3, 1.1, 0.4], GRID).max() == 0.0


def test_mean_square_pattern_equals_energy(oracle_rng):
    # Parseval on an endpoint-excluded uniform grid over one full period;
    # the pattern is relative to its sampled peak, read directly from c.
    c = make_min_phase(oracle_rng, 9)
    u = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    db = array_factor(c, u)
    peak = abs(np.polyval(c[::-1], np.exp(1j * u[np.argmax(db)])))
    assert np.mean(_linear(db) ** 2) * peak ** 2 == pytest.approx(
        float(np.sum(c ** 2)), rel=1e-6)


def test_zeros_of_known_polynomials():
    zs = polynomial_zeros([1.0, 0.5])
    assert zs == pytest.approx([-0.5])
    assert np.max(np.abs(zs)) == pytest.approx(0.5)

    double = polynomial_zeros([1.0, 1.0, 0.25])
    assert double == pytest.approx([-0.5, -0.5], abs=1e-6)


def test_zero_count_and_leading_strip():
    assert len(polynomial_zeros(np.arange(1.0, 8.0))) == 6
    assert len(polynomial_zeros([0.0, 1.0, 0.5])) == 1
    assert len(polynomial_zeros([5.0])) == 0
    assert evaluate([5.0], None, name="one").zero_max_radius == 0.0


def _zeros_root_by_root(c) -> np.ndarray:
    """polynomial_zeros' Newton polish, one root at a time: the reference."""
    coeffs = np.asarray(c)
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    for i, z in enumerate(roots):
        for _ in range(2):
            pz = np.polyval(coeffs, z)
            dz = np.polyval(deriv, z)
            if dz == 0.0:
                break
            z_new = z - pz / dz
            if abs(np.polyval(coeffs, z_new)) < abs(pz):
                z = z_new
            else:
                break
        roots[i] = z
    return roots[np.lexsort((roots.imag, roots.real))]


def test_vectorized_polish_matches_root_by_root(design1, design3):
    rng = np.random.default_rng(5)
    cases = [design1.weights.c, design3.weights.c, [1.0, -3.0, 3.0, -1.0],
             [1.0, 0.0, 0.0, 0.0], make_min_phase(rng, 17),
             apply_steering(design1.weights.c, 0.3)]
    cases += [rng.standard_normal(n) for n in range(2, 33)]
    for c in cases:
        got, want = polynomial_zeros(c), _zeros_root_by_root(c)
        assert got.dtype == want.dtype and np.array_equal(got, want), c


def test_zeros_are_sorted_and_conjugate_closed(oracle_rng):
    c = make_min_phase(oracle_rng, 10)
    zs = polynomial_zeros(c)
    order = np.lexsort((zs.imag, zs.real))
    assert np.array_equal(order, np.arange(len(zs)))
    paired = np.sort_complex(np.conj(zs))
    assert np.sort_complex(zs) == pytest.approx(paired, abs=1e-9)


def test_min_phase_verdict():
    good = evaluate([1.0, 0.5], None, name="good")
    assert good.min_phase
    assert np.abs(good.zeros) == pytest.approx([0.5])

    bad = evaluate([0.5, 1.0], None, name="bad")
    assert not bad.min_phase
    assert bad.zeros == pytest.approx([-2.0])

    # radius 1 + tol is still on the circle; just past it is outside
    for radius, inside in ((1.0 + ZERO_RADIUS_TOL, True), (1.0 + 2.0 * ZERO_RADIUS_TOL, False)):
        assert evaluate([1.0, radius], None, name="edge").min_phase is inside


def test_evaluate_without_spec_needs_a_name():
    with pytest.raises(ValueError, match="needs a name when spec is None"):
        evaluate([1.0, 0.5], None)
    assert evaluate([1.0, 0.5], None, name="named").name == "named"


def test_partial_energy_profile():
    assert partial_energy_profile([1.0, 0.5]) == pytest.approx([1.0, 1.25])
    assert partial_energy_profile([0.0, 1.0]) == pytest.approx([0.0, 1.0])


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=10))
def test_energy_profile_is_nondecreasing(vals):
    prof = partial_energy_profile(np.array(vals))
    assert np.all(np.diff(prof) >= 0.0)
    assert prof[-1] == pytest.approx(float(np.sum(np.square(vals))), abs=1e-12)


def test_on_circle_zero_is_never_reflected():
    variants = allpass_variants(np.array([1.0, 1.0]))
    assert len(variants) == 1
    assert variants[0] == pytest.approx([1.0, 1.0])


def test_interior_zero_reflection():
    variants = allpass_variants(np.array([1.0, 0.5]))
    assert len(variants) == 2
    assert variants[0] == pytest.approx([1.0, 0.5])
    assert variants[1] == pytest.approx([0.5, 1.0])


def test_variants_share_magnitude_and_energy(oracle_rng):
    c = make_min_phase(oracle_rng, 5)
    variants = allpass_variants(c)
    assert len(variants) == 2 ** 4
    ref = _linear(array_factor(c, GRID[:512]))
    energy = float(np.sum(c ** 2))
    for v in variants:
        assert float(np.sum(np.abs(v) ** 2)) == pytest.approx(energy, rel=1e-12)
        mag = _linear(array_factor(v, GRID[:512]))
        assert mag == pytest.approx(ref, rel=1e-6)
    assert variants[0] == pytest.approx(c, abs=1e-9)


def test_only_base_variant_is_min_phase(oracle_rng):
    c = make_min_phase(oracle_rng, 5)
    flags = [evaluate(v, None, name="variant").min_phase
             for v in allpass_variants(c)]
    assert flags[0]
    assert flags.count(True) == 1


def test_variant_enumeration_is_capped():
    with pytest.raises(ValueError, match="capped"):
        allpass_variants(np.ones(13))


def test_steering_identity_and_half_turn():
    c = np.array([1.0, 1.0])
    same = apply_steering(c, 0.0)
    assert np.array_equal(same, c) and not np.shares_memory(same, c)
    assert apply_steering(c, math.pi) == pytest.approx([1.0, -1.0])


def test_steering_translates_the_pattern(oracle_rng):
    c = make_min_phase(oracle_rng, 7)
    u0 = 0.7
    steered = array_factor(apply_steering(c, u0), GRID[:1024])
    shifted = array_factor(c, GRID[:1024] - u0)
    # Both are relative to a peak of at most sum|c|: at least as strict as
    # 1e-12 on |C| itself.
    assert _linear(steered) == pytest.approx(_linear(shifted),
                                             abs=1e-12 / np.sum(np.abs(c)))


def test_pattern_nulls_at_on_circle_zeros(pencil):
    zs = polynomial_zeros(pencil.taps)
    angles = np.array([np.angle(z) for z in zs if z.imag >= 0.0])
    db = array_factor(pencil.taps, np.concatenate([[0.0], angles]))
    assert db[0] == 0.0  # peak stays at broadside
    assert np.all(db[1:] <= -100.0)


def test_metrics_flag_an_isotropic_violator():
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 0.5, "pass", ripple_db=1.0),
        BandSpec(1.0, math.pi, "stop", max_level_db=-30.0)))
    levels = measure([1.0], spec)
    stop = levels[1]
    assert stop.achieved_db == 0.0
    assert stop.margin_db == pytest.approx(-30.0)
    assert [lv for lv in levels if lv.margin_db < 0.0] == [stop]
    assert evaluate([1.0], spec).max_sidelobe_db == 0.0


def test_metrics_require_coverage_of_every_band():
    # A band holds its own edges, so even a single-point band is judged.
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 1.0, "pass", ripple_db=1.0),
        BandSpec(2.0, 2.0, "stop", max_level_db=-30.0)))
    levels = measure([1.0, 0.5], spec)
    assert [lv.kind for lv in levels] == ["pass", "stop"]
    assert levels[1].achieved_db == pytest.approx(
        20.0 * math.log10(abs(1.0 + 0.5 * np.exp(2j)) / 1.5), abs=1e-12)


def test_design_metrics_round_trip(design1):
    spec = design1_spec()
    redone = evaluate(design1.weights.c, spec)
    assert redone.max_sidelobe_db == pytest.approx(
        design1.levels[1].achieved_db, abs=1e-12)
    assert redone.flattop_ripple_db == pytest.approx(
        design1.levels[0].achieved_db, abs=1e-12)
    assert redone.feasible and redone.witness == ()


def _excitation(case, request):
    """(c, spec) of one judge case; steering is by u0 = 0.7 rad."""
    if case == "pencil":
        return design_pencil().taps, pencil_spec()
    if case == "complex":
        rng = np.random.default_rng(5)
        return rng.standard_normal(12) + 1j * rng.standard_normal(12), design2_spec()
    if case.startswith("design"):
        spec = {"design1": design1_spec, "design2": design2_spec,
                "design3": design3_spec}[case]()
        return request.getfixturevalue(case).weights.c, spec
    steered = apply_steering(request.getfixturevalue("design1").weights.c, 0.7)
    return (steered if case == "steered" else apply_steering(steered, -0.7)), design1_spec()


def _scan_with_its_peak(c, points):
    """A uniform scan of [0, pi] plus the pattern's peak, found by a bounded
    scalar maximization of |C|^2 between the grid neighbours of the scan's
    largest sample, so the scan's levels are relative to the true peak."""
    scan = np.linspace(0.0, math.pi, points)
    i = int(np.argmax(array_factor(c, scan)))
    power = lambda u: -abs(np.polyval(np.asarray(c)[::-1], np.exp(1j * u))) ** 2
    peak = scipy.optimize.minimize_scalar(
        power, bounds=(scan[max(i - 1, 0)], scan[min(i + 1, points - 1)]),
        method="bounded", options={"xatol": 1e-13}).x
    return np.append(scan, peak)


@pytest.mark.parametrize("case", ["design1", "design2", "design3", "pencil",
                                  "complex", "steered", "unsteered"])
def test_measure_is_exact_against_a_dense_scan(case, request):
    c, spec = _excitation(case, request)
    edges = [u for band in spec.bands for u in (band.u_lo, band.u_hi)]
    scan = np.concatenate([_scan_with_its_peak(c, 1 << 16), edges])
    dense = pattern_metrics(scan, array_factor(c, scan), spec)
    exact = measure(c, spec)
    # Levels are relative to the peak, which the scan holds; a band's level
    # read between samples can only be low.
    for lv, ref in zip(exact, dense):
        assert ref.achieved_db - 1e-9 <= lv.achieved_db <= ref.achieved_db + 1e-4
    if case == "pencil":
        assert max(lv.achieved_db for lv in exact if lv.kind == "stop") == pytest.approx(
            20.0 * math.log10(design_pencil().delta), abs=1e-9)


def test_measure_catches_a_peak_between_grid_points():
    # The stop bound lies between this excitation's stop level read on an
    # 8,192-point grid, which passes it, and its exact level, which does not.
    c = np.random.default_rng(122).standard_normal(64)
    spec = DesignSpec(0.5, (BandSpec(0.0, 0.5, "pass", ripple_db=200.0),
                            BandSpec(1.0, math.pi, "stop", max_level_db=-0.27182)))
    grid = np.concatenate([np.linspace(0.0, math.pi, 8192), [0.5, 1.0]])
    assert all(lv.margin_db >= 0.0
               for lv in pattern_metrics(grid, array_factor(c, grid), spec))
    report = evaluate(c, spec)
    assert not report.feasible
    assert [lv.kind for lv in report.bands if lv.margin_db < 0.0] == ["stop"]
    assert report.witness[0].startswith("stop band [1, 3.14159]")


def test_report_serializes_to_json(design1):
    spec = design1_spec()
    payload = json.loads(json.dumps(design1.report.to_dict()))
    assert payload["name"] == spec.name
    assert payload["element_count"] == 6
    assert payload["min_phase"] is True
    assert payload["feasible"] is True
    assert payload["zero_count"] == 5
    assert payload["expansion"] == design1.report.expansion
    assert len(payload["bands"]) == len(spec.bands)


def test_report_maps_unbounded_levels_to_null():
    spec = DesignSpec(0.5, (BandSpec(0.0, 1.0, "pass", ripple_db=1.0),),
                      name="pass-only")
    report = evaluate([1.0, 0.5], spec)
    assert report.max_sidelobe_db == -math.inf
    payload = report.to_dict()
    assert payload["max_sidelobe_db"] is None
    assert payload["gamma"] is None
    assert json.dumps(payload)
