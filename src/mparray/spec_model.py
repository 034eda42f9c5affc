"""Design specifications for uniformly spaced linear arrays.

A design is stated as amplitude bands over the spatial frequency
u = 2*pi*(d/lambda)*sin(theta), where d is the element spacing, lambda the
wavelength and theta the angle off broadside.  All bands live in u-space on
[0, pi]; real excitations produce patterns that are even in u, so one half
axis carries the whole specification.  A DesignSpec checks its invariants
when it is built, so every spec in hand is a valid request.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

BandKind = Literal["pass", "stop"]

# Width below which a band is treated as a single point (pencil beam).
DEGENERATE_WIDTH = 1e-12

# Edge slack of the spec checks, and so of every reader of the bands (plan, judge).
EDGE_SLACK = 1e-9


class SpecValidationError(ValueError):
    """A design specification violates one of its structural invariants."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class BandSpec:
    """One amplitude band in u-space.

    Parameters
    ----------
    u_lo, u_hi : float
        Band edges in radians of u, with 0 <= u_lo <= u_hi <= pi.
    kind : {"pass", "stop"}
        Pass bands must hold the pattern maximum and bound their ripple
        below it; stop bands bound the peak level relative to it.
    ripple_db : float, optional
        Pass-band ripple bound in dB (> 0), as depth below the maximum.
        Required for a pass band unless the band is degenerate (u_lo == u_hi).
    max_level_db : float, optional
        Stop-band ceiling in dB relative to the pattern maximum (< 0).
        Required for stop bands.
    """

    u_lo: float
    u_hi: float
    kind: BandKind
    ripple_db: float | None = None
    max_level_db: float | None = None

    @property
    def width(self) -> float:
        return self.u_hi - self.u_lo

    @property
    def is_degenerate(self) -> bool:
        return self.width <= DEGENERATE_WIDTH


@dataclass(frozen=True)
class DesignSpec:
    """A complete array design request, valid by construction.

    Exactly one band must be a pass band; every other band is a stop band.
    ``steering_angle_rad`` shifts the synthesized pattern after the design;
    the bands themselves are stated for the unsteered (broadside) pattern.
    Building one sorts the bands by (u_lo, u_hi), or raises one
    SpecValidationError listing every problem, each band by its given index.
    """

    spacing_wavelengths: float
    bands: tuple[BandSpec, ...]
    steering_angle_rad: float = 0.0
    name: str = ""

    def __post_init__(self):
        problems: list[str] = []
        if not self.bands:
            problems.append("spec has no bands")
        if not (math.isfinite(self.spacing_wavelengths) and self.spacing_wavelengths > 0.0):
            problems.append("spacing_wavelengths must be positive")
        if not (-math.pi / 2 < self.steering_angle_rad < math.pi / 2):
            problems.append("steering_angle_rad must lie in (-pi/2, pi/2)")

        for i, band in enumerate(self.bands):
            problems.extend(_band_problems(i, band))

        n_pass = sum(1 for b in self.bands if b.kind == "pass")
        if self.bands and n_pass != 1:
            problems.append(f"spec needs exactly one pass band, found {n_pass}")

        bands = tuple(sorted(self.bands, key=lambda b: (b.u_lo, b.u_hi)))
        for prev, nxt in zip(bands, bands[1:]):
            if nxt.u_lo < prev.u_hi - EDGE_SLACK:
                problems.append(
                    f"bands [{prev.u_lo:.6g}, {prev.u_hi:.6g}] and "
                    f"[{nxt.u_lo:.6g}, {nxt.u_hi:.6g}] overlap")

        if problems:
            raise SpecValidationError(problems)
        object.__setattr__(self, "bands", bands)

    @property
    def pass_band(self) -> BandSpec:
        return next(b for b in self.bands if b.kind == "pass")

    @property
    def stop_bands(self) -> tuple[BandSpec, ...]:
        return tuple(b for b in self.bands if b.kind == "stop")


def theta_to_u(theta_rad: float, spacing_wavelengths: float) -> float:
    """Map a physical angle off broadside to spatial frequency u.

    u = 2*pi*(d/lambda)*sin(theta).  Total on [-pi/2, pi/2].
    """
    return 2.0 * math.pi * spacing_wavelengths * math.sin(theta_rad)


def _band_problems(i: int, band: BandSpec) -> list[str]:
    problems = []
    if not (math.isfinite(band.u_lo) and math.isfinite(band.u_hi)):
        problems.append(f"band {i}: edges must be finite")
        return problems
    if band.u_lo < -EDGE_SLACK or band.u_hi > math.pi + EDGE_SLACK:
        problems.append(f"band {i}: edges must lie in [0, pi], got "
                        f"[{band.u_lo:.6g}, {band.u_hi:.6g}]")
    if band.u_hi < band.u_lo:
        problems.append(f"band {i}: u_hi < u_lo")
    if band.kind == "pass":
        if band.is_degenerate:
            pass  # pencil beam: ripple bound is meaningless at a point
        elif band.ripple_db is None or not band.ripple_db > 0.0:
            problems.append(f"band {i}: pass band needs ripple_db > 0")
    elif band.kind == "stop":
        if band.max_level_db is None or not band.max_level_db < 0.0:
            problems.append(f"band {i}: stop band needs max_level_db < 0")
    else:
        problems.append(f"band {i}: unknown kind {band.kind!r}")
    return problems
