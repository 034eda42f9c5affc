import math

import pytest
from hypothesis import example, given, strategies as st

from mparray import BandSpec, DesignSpec, SpecValidationError, design1_spec
from mparray.spec_model import theta_to_u, validate_spec


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
    spec = validate_spec(design1_spec())
    assert spec.pass_band.ripple_db == 0.25
    assert spec.stop_bands[0].max_level_db == -52.0


def test_validate_rejects_overlap():
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
        BandSpec(0.9, 2.0, "stop", max_level_db=-20.0)))
    with pytest.raises(SpecValidationError, match="overlap"):
        validate_spec(spec)


def test_validate_rejects_zero_ripple():
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 1.0, "pass", ripple_db=0.0),
        BandSpec(2.0, 3.0, "stop", max_level_db=-20.0)))
    with pytest.raises(SpecValidationError, match="ripple_db"):
        validate_spec(spec)


def test_validate_requires_exactly_one_pass_band():
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
        BandSpec(1.5, 2.0, "pass", ripple_db=0.5)))
    with pytest.raises(SpecValidationError, match="exactly one pass band"):
        validate_spec(spec)


def test_validate_collects_every_problem():
    spec = DesignSpec(-1.0, (
        BandSpec(0.0, 1.0, "pass", ripple_db=0.0),
        BandSpec(2.0, 1.5, "stop", max_level_db=0.5)))
    with pytest.raises(SpecValidationError) as info:
        validate_spec(spec)
    assert len(info.value.problems) >= 3


def test_validate_sorts_bands_and_is_idempotent():
    spec = DesignSpec(0.5, (
        BandSpec(2.0, 3.0, "stop", max_level_db=-20.0),
        BandSpec(0.0, 1.0, "pass", ripple_db=0.5)))
    once = validate_spec(spec)
    assert [b.u_lo for b in once.bands] == [0.0, 2.0]
    assert validate_spec(once) == once


def test_validate_rejects_wild_steering():
    spec = DesignSpec(0.5, (
        BandSpec(0.0, 1.0, "pass", ripple_db=0.5),
        BandSpec(2.0, 3.0, "stop", max_level_db=-20.0)),
        steering_angle_rad=2.0)
    with pytest.raises(SpecValidationError, match="steering"):
        validate_spec(spec)
