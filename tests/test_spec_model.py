import math

import pytest
from hypothesis import example, given, strategies as st

from mparray import BandSpec, DesignSpec, SpecValidationError, design1_spec
from mparray.spec_model import theta_to_u


def test_theta_to_u_known_points():
    assert theta_to_u(0.0, 0.5) == 0.0
    assert theta_to_u(math.pi / 2, 0.5) == pytest.approx(math.pi, abs=1e-15)
    # flat-top edge of the first reference design
    assert theta_to_u(0.2182, 0.5) == pytest.approx(0.6800689029299019, abs=1e-15)


@given(st.floats(0.0, math.pi / 2), st.floats(0.05, 2.0))
@example(1.5707963267948963, 1.0)  # theta + eps would step past pi/2
def test_theta_to_u_odd_and_increasing(theta, spacing):
    assert theta_to_u(-theta, spacing) == -theta_to_u(theta, spacing)
    eps = 1e-6
    # theta_to_u is defined on [-pi/2, pi/2]; sin falls beyond pi/2.
    if theta + eps <= math.pi / 2:
        assert theta_to_u(theta + eps, spacing) > theta_to_u(theta, spacing)


def test_design1_spec_is_valid():
    spec = design1_spec()
    assert spec.pass_band.ripple_db == 0.25
    assert spec.stop_bands[0].max_level_db == -52.0


def test_validate_rejects_overlap():
    with pytest.raises(SpecValidationError, match="overlap"):
        DesignSpec(0.5, (
            BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
            BandSpec(0.9, 2.0, "stop", max_level_db=-20.0)))


def test_validate_rejects_zero_ripple():
    with pytest.raises(SpecValidationError, match="ripple_db"):
        DesignSpec(0.5, (
            BandSpec(0.0, 1.0, "pass", ripple_db=0.0),
            BandSpec(2.0, 3.0, "stop", max_level_db=-20.0)))


def test_validate_requires_exactly_one_pass_band():
    with pytest.raises(SpecValidationError, match="exactly one pass band"):
        DesignSpec(0.5, (
            BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
            BandSpec(1.5, 2.0, "pass", ripple_db=0.5)))


def test_validate_collects_every_problem():
    with pytest.raises(SpecValidationError) as info:
        DesignSpec(-1.0, (
            BandSpec(0.0, 1.0, "pass", ripple_db=0.0),
            BandSpec(2.0, 1.5, "stop", max_level_db=0.5)))
    assert len(info.value.problems) >= 3


def test_validate_sorts_bands_and_is_idempotent():
    spec = DesignSpec(0.5, (
        BandSpec(2.0, 3.0, "stop", max_level_db=-20.0),
        BandSpec(0.0, 1.0, "pass", ripple_db=0.5)))
    assert [b.u_lo for b in spec.bands] == [0.0, 2.0]
    assert DesignSpec(spec.spacing_wavelengths, spec.bands,
                      spec.steering_angle_rad, spec.name) == spec


def test_validate_rejects_wild_steering():
    with pytest.raises(SpecValidationError, match="steering"):
        DesignSpec(0.5, (
            BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
            BandSpec(2.0, 3.0, "stop", max_level_db=-20.0)),
            steering_angle_rad=2.0)


_PASS = BandSpec(0.0, 0.68, "pass", ripple_db=0.25)
_STOP = BandSpec(2.72, math.pi, "stop", max_level_db=-52.0)


# Invalid requests that evaluate could judge while a spec was checked only on
# request: design1's weights read feasible on all of them but the overlap.
@pytest.mark.parametrize("bands, steering, message", [
    ((_PASS, BandSpec(2.72, math.pi, "stop")), 0.0,
     "band 1: stop band needs max_level_db < 0"),
    ((_PASS, BandSpec(2.72, math.pi, "stopp", max_level_db=-52.0)), 0.0,
     "band 1: unknown kind 'stopp'"),
    ((_STOP,), 0.0, "spec needs exactly one pass band, found 0"),
    ((_PASS, _STOP), 5.0, "steering_angle_rad must lie in (-pi/2, pi/2)"),
    ((_PASS, BandSpec(0.5, math.pi, "stop", max_level_db=-52.0)), 0.0,
     "bands [0, 0.68] and [0.5, 3.14159] overlap"),
], ids=["stop-without-level", "unknown-kind", "no-pass-band", "wild-steering", "overlap"])
def test_invalid_requests_cannot_be_built(bands, steering, message):
    with pytest.raises(SpecValidationError) as info:
        DesignSpec(0.5, bands, steering_angle_rad=steering)
    assert info.value.problems == [message]


def test_problems_name_bands_in_the_order_given():
    with pytest.raises(SpecValidationError) as info:
        DesignSpec(0.5, (BandSpec(2.72, math.pi, "stop", max_level_db=1.0), _PASS))
    assert info.value.problems == ["band 0: stop band needs max_level_db < 0"]
