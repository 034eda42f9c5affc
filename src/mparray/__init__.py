"""Minimum-phase excitation synthesis for uniformly spaced linear arrays.

The pipeline: describe pass/stop bands on the array variable u, design an
equiripple power prototype, lift it onto a banded Toeplitz form and extract
the minimum-phase excitation from its Cholesky factor, then search for the
smallest element count that meets the bands.

The names below are the documented surface (see README.md); the internals
are importable from their submodules.
"""
from .spec_model import BandSpec, DesignSpec, SpecValidationError
from .equiripple import PrototypeBand, RemezConvergenceError, remez_design
from .spectral_factor import FactorizationError, spectral_factorize
from .analysis import (DesignReport, allpass_variants, apply_steering,
                       partial_energy_profile, polynomial_zeros)
from .prototype import (InfeasibleSpecError, OrderSearchError, SearchLimits,
                        evaluate, find_min_order)
from .designs import (builtin_spec, design_pencil, design1_spec, design2_spec,
                      design3_spec, pencil_spec)

__version__ = "0.1.0"

__all__ = [
    "BandSpec", "DesignSpec", "SpecValidationError",
    "InfeasibleSpecError", "OrderSearchError", "RemezConvergenceError",
    "FactorizationError",
    "find_min_order", "evaluate", "SearchLimits", "DesignReport",
    "remez_design", "PrototypeBand", "design_pencil", "spectral_factorize",
    "builtin_spec", "design1_spec", "design2_spec", "design3_spec",
    "pencil_spec",
    "polynomial_zeros", "allpass_variants", "apply_steering",
    "partial_energy_profile",
    "__version__",
]
