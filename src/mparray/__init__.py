"""Minimum-phase excitation synthesis for uniformly spaced linear arrays.

The pipeline: describe pass/stop bands on the array variable u, design an
equiripple power prototype, lift it onto a banded Toeplitz form and extract
the minimum-phase excitation from its Cholesky factor, then search for the
smallest element count that meets the bands.
"""
from .spec_model import (BandSpec, DesignSpec, SpecValidationError,
                         VisibleRegionError, amplitude_to_db, db_to_amplitude,
                         theta_to_u, u_to_theta, validate_spec)
from .equiripple import (LinearPhasePrototype, PrototypeBand,
                         RemezConvergenceError, estimate_order, remez_design)
from .spectral_factor import (FactorizationDiagnostics, FactorizationError,
                              MinPhaseWeights, ToeplitzOperator,
                              autocorrelation, find_gamma, refine_newton,
                              spectral_factorize, verify_factorization)
from .analysis import (DesignReport, MinPhaseVerdict, PatternMetrics,
                       PatternSamples, ZeroSet, allpass_variants,
                       apply_steering, array_factor, metrics_grid,
                       min_phase_check, partial_energy_profile,
                       pattern_metrics, polynomial_zeros)
from .prototype import (InfeasibleSpecError, MinOrderResult, OrderSearchError,
                        PrototypeSpec, SearchLimits, design_prototype,
                        evaluate, find_min_order, to_prototype_spec)
from .designs import (builtin_spec, design_pencil, design1_spec, design2_spec,
                      design3_spec, pencil_spec)

__version__ = "0.1.0"

__all__ = [
    "BandSpec", "DesignSpec", "SpecValidationError", "VisibleRegionError",
    "amplitude_to_db", "db_to_amplitude", "theta_to_u", "u_to_theta",
    "validate_spec",
    "LinearPhasePrototype", "PrototypeBand", "RemezConvergenceError",
    "estimate_order", "remez_design",
    "FactorizationDiagnostics", "FactorizationError", "MinPhaseWeights",
    "ToeplitzOperator", "autocorrelation", "find_gamma", "refine_newton",
    "spectral_factorize", "verify_factorization",
    "DesignReport", "MinPhaseVerdict", "PatternMetrics", "PatternSamples",
    "ZeroSet", "allpass_variants", "apply_steering", "array_factor",
    "metrics_grid", "min_phase_check",
    "partial_energy_profile", "pattern_metrics", "polynomial_zeros",
    "InfeasibleSpecError", "MinOrderResult", "OrderSearchError",
    "PrototypeSpec", "SearchLimits", "design_prototype", "evaluate",
    "find_min_order", "to_prototype_spec",
    "builtin_spec", "design_pencil", "design1_spec", "design2_spec",
    "design3_spec", "pencil_spec",
    "__version__",
]
