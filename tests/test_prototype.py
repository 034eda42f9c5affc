import math
from dataclasses import replace

import numpy as np
import pytest

import mparray.prototype as prototype_module
from mparray import (BandSpec, DesignSpec, InfeasibleSpecError, PrototypeSpec,
                     SearchLimits, design_prototype,
                     design1_spec, design2_spec, design3_spec, find_min_order,
                     pencil_spec, to_prototype_spec)
from mparray import PrototypeBand
from mparray.prototype import OrderSearchError, _attempt

from equioscillation import amplitude_response, equioscillation_extrema


def test_squared_pattern_tolerances_for_design1():
    pspec = to_prototype_spec(design1_spec())
    # stop: half the squared linear ceiling; pass: what the ripple leaves
    assert pspec.delta_stop == pytest.approx(3.1547867224009644e-06, rel=1e-12)
    assert pspec.delta_pass == pytest.approx(0.028365738849448957, rel=1e-12)
    by_target = {b.desired: b for b in pspec.bands}
    assert by_target[1.0].weight == pytest.approx(1.0 / pspec.delta_pass, rel=1e-12)
    assert by_target[0.0].weight == pytest.approx(1.0 / pspec.delta_stop, rel=1e-12)


def test_tolerance_mapping_monotone_in_ripple():
    def delta_pass(ripple_db):
        bands = (BandSpec(0.0, 1.0, "pass", ripple_db=ripple_db),
                 BandSpec(2.0, math.pi, "stop", max_level_db=-40.0))
        return to_prototype_spec(DesignSpec(0.5, bands)).delta_pass

    values = [delta_pass(r) for r in (0.1, 0.25, 0.5, 1.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_overtight_ripple_is_infeasible():
    bands = (BandSpec(0.0, 1.0, "pass", ripple_db=0.01),
             BandSpec(2.0, math.pi, "stop", max_level_db=-3.0))
    with pytest.raises(InfeasibleSpecError, match="no squared-pattern"):
        to_prototype_spec(DesignSpec(0.5, bands))


def test_pencil_spec_cannot_use_squared_route():
    with pytest.raises(InfeasibleSpecError, match="degenerate pass band"):
        to_prototype_spec(pencil_spec())


def test_spec_without_stop_band_is_rejected():
    spec = DesignSpec(0.5, (BandSpec(0.0, math.pi, "pass", ripple_db=0.5),))
    with pytest.raises(InfeasibleSpecError, match="stop band"):
        to_prototype_spec(spec)


def test_single_element_prototype_is_unity():
    pspec = PrototypeSpec(bands=(PrototypeBand(0.0, math.pi, 1.0, 1.0),),
                          delta_pass=1.0, delta_stop=1.0)
    proto = design_prototype(pspec, 1)
    assert proto.taps == pytest.approx([1.0], abs=1e-14)


def test_design1_prototype_respects_stop_budget():
    pspec = to_prototype_spec(design1_spec())
    proto = design_prototype(pspec, 6)
    assert len(proto.taps) == 11
    stop = next(b for b in proto.bands if b.desired == 0.0)
    u = np.linspace(stop.u_lo, stop.u_hi, 20001)
    assert np.max(np.abs(amplitude_response(proto, u))) <= pspec.delta_stop * (1.0 + 1e-6)


def test_design2_prototype_balances_band_errors():
    pspec = to_prototype_spec(design2_spec())
    proto = design_prototype(pspec, 14)
    assert len(proto.taps) == 27
    peaks = equioscillation_extrema(proto).band_peaks()
    assert peaks[0] == pytest.approx(peaks[1], rel=1e-6)


def test_minimal_order_search_design1(design1):
    assert design1.order == 6
    assert not design1.metrics.violations
    assert design1.report.min_phase
    # minimality witness: the trial one element short violated a band
    assert design1.report.witness
    assert design1.report.minimality == "route_only"
    assert all(lv.margin_db >= 0.0 for lv in design1.metrics.bands)


def test_search_is_deterministic(design1):
    again = find_min_order(design1_spec())
    assert again.order == design1.order
    assert np.array_equal(again.weights.c, design1.weights.c)


def test_search_reports_best_attempt_when_capped():
    with pytest.raises(OrderSearchError) as info:
        find_min_order(design1_spec(), SearchLimits(max_order=3))
    best = info.value.best
    assert best is not None
    assert best.order <= 3
    assert best.violations


def test_feasibility_is_judged_on_original_bands(design2):
    spec = design2_spec()
    for lv, band in zip(design2.metrics.bands, spec.bands):
        assert lv.u_lo == pytest.approx(band.u_lo)
        assert lv.u_hi == pytest.approx(band.u_hi)
        assert lv.margin_db >= 0.0



def test_exchange_failure_does_not_end_the_search():
    # At 16 elements the exchange finds only 15 alternating extrema of the
    # 17 it needs; that count is recorded as failed and the search goes on.
    spec = DesignSpec(0.5, (BandSpec(0.0, 1.1147, "pass", ripple_db=2.0),
                            BandSpec(1.7247, math.pi, "stop", max_level_db=-47.54)))
    failed = _attempt(spec, to_prototype_spec(spec), 16, SearchLimits())
    assert not failed.feasible and failed.prototype is None
    assert failed.violations[0].startswith("exchange failed: only 15")
    result = find_min_order(spec)
    assert result.order == 17
    assert not result.metrics.violations


def test_minimality_rests_on_an_exchange_failure_is_unproven():
    # 16 elements failed in the exchange, not against the bands, so nothing
    # shows that 16 elements cannot meet them.
    spec = DesignSpec(0.5, (BandSpec(0.0, 1.1147, "pass", ripple_db=2.0),
                            BandSpec(1.7247, math.pi, "stop", max_level_db=-47.54)))
    result = find_min_order(spec)
    assert result.order == 17
    assert result.report.minimality == "unproven"
    assert result.report.to_dict()["minimality"] == "unproven"
    assert result.report.witness[0].startswith("exchange failed:")


def test_zeros_near_the_circle_end_minimum_phase():
    # The lifted G of this request nearly touches zero, so at Q = 30N the
    # extracted factor has a zero at radius 1.0007; reflecting it into the
    # disc gives the minimum-phase factor with the same pattern.
    spec = DesignSpec(0.5, (BandSpec(0.0, 0.49831031292556177, "pass",
                                     ripple_db=1.3299101106803255),
                            BandSpec(2.170245083630752, math.pi, "stop",
                                     max_level_db=-69.21116506441766)))
    result = find_min_order(spec)
    assert result.order == 9
    assert result.report.min_phase
    assert np.max(np.abs(np.roots(result.weights.c))) <= 1.0
    assert result.diagnostics.autocorr_residual <= 1e-12


def _count_prototypes(monkeypatch) -> list[int]:
    """Record the element count of every design_prototype call."""
    calls = []
    real = prototype_module.design_prototype

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(prototype_module, "design_prototype", counted)
    return calls


@pytest.mark.parametrize("make_spec, orders", [(design1_spec, [7, 6, 5]),
                                               (design2_spec, [13, 14]),
                                               (design3_spec, [13, 13, 14])])
def test_search_designs_no_prototype_twice(monkeypatch, make_spec, orders):
    # Each count is designed at the mapped weight ratio; design3 tilts 13
    # once, toward the pass band, then fails on the stop band, which ends
    # the walk.  No weight ratio is designed twice.
    calls = _count_prototypes(monkeypatch)
    find_min_order(make_spec())
    assert calls == orders


@pytest.mark.parametrize("make_spec, order", [(design1_spec, 5), (design2_spec, 13),
                                              (design3_spec, 13)])
def test_uniform_weight_scaling_keeps_the_prototype(make_spec, order):
    # Only the ratio of the band weights shapes the equiripple prototype,
    # which is why the walk never tightens both sides at once.
    pspec = to_prototype_spec(make_spec())
    base = design_prototype(pspec, order).taps
    for k in range(1, 6):
        bands = tuple(replace(b, weight=b.weight / 0.9 ** k) for b in pspec.bands)
        taps = design_prototype(replace(pspec, bands=bands), order).taps
        assert np.max(np.abs(taps - base)) <= 1e-12 * np.max(np.abs(base))


def test_pass_side_tilt_rescues_an_element_count(monkeypatch):
    spec = DesignSpec(0.5, (BandSpec(0.0, 1.1799745512985573, "pass",
                                     ripple_db=1.7713404806886275),
                            BandSpec(2.7224321676816112, math.pi, "stop",
                                     max_level_db=-46.029040801240924)))
    pspec = to_prototype_spec(spec)
    assert find_min_order(spec).order == 5
    monkeypatch.setattr(prototype_module, "MAX_SHRINKS", 0)
    untilted = _attempt(spec, pspec, 5, SearchLimits())
    assert not untilted.feasible
    assert {lv.kind for lv in untilted.metrics.violations} == {"pass"}
    monkeypatch.undo()
    calls = _count_prototypes(monkeypatch)
    assert _attempt(spec, pspec, 5, SearchLimits()).feasible
    assert len(calls) == 2


def test_touching_stop_bands_with_different_weights():
    # The stop bands share u = 2.0 and their ceilings give them different
    # weights.  An exchange node at the shared edge keeps the band whose
    # weight its error was measured with; read back as the first band's, it
    # stalled the exchange at every count.  The count is the one a 1e-3 gap
    # between the stop bands gives.
    def spec(gap):
        return DesignSpec(0.5, (BandSpec(0.0, 0.6, "pass", ripple_db=1.0),
                                BandSpec(1.2, 2.0, "stop", max_level_db=-30.0),
                                BandSpec(2.0 + gap, math.pi, "stop", max_level_db=-45.0)))

    result = find_min_order(spec(0.0))
    assert result.order == 22
    assert not result.metrics.violations
    assert result.report.min_phase
    assert find_min_order(spec(1e-3)).order == 22
