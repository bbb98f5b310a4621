"""Temporal three-photon interference simulator.

Computes degree-of-coherence factors and triple-coincidence rates for
two-alternative setups fed by cascaded or third-order parametric
down-conversion sources, reduces arbitrary eight-length geometries to
the three governing length parameters, and validates the factorized
rate against a brute-force 3D integration.
"""

__version__ = "0.1.0"

from .constants import SPEED_OF_LIGHT
from .errors import (CarrierPhaseOverflowError, InsufficientSamplingError,
                     NormalizationError, ParseError, ValidationError)
from .spectra import (Gaussian, JointSpectralDensity, Lorentzian, Separable,
                      SincSquared, SpectralDensity, Tabulated, Tabulated2D)
from .pathgeom import (CentralFrequencies, PathConfiguration, ReducedParameters,
                       SourceKind, carrier_omegas, carrier_wavenumbers,
                       cpdc_freq_inverse, cpdc_freq_transform, reduce_cpdc,
                       reduce_topdc, topdc_freq_inverse, topdc_freq_transform)
from .coherence import (CoherenceValue, DelayTriple, coherence_surface,
                        gamma_prime, gamma_pump, transform_1d)
from .rates import (AlternativeAmplitudes, RateResult, SourceModel,
                    rate_length, rate_time)
from .oracle import (LinearShift, OracleConfig, OracleTerm, RatioErrorRow,
                     factorization_error_sweep, factorized_interference_term,
                     interference_term_3d, max_error_by_ratio)
from .experiments import (DipMetrics, DipProfile, ExtremumKind, FringeMetrics,
                          SweepSpec, SweepTable, SweepVariable,
                          category_i_spec, category_ii_spec, category_iii_specs,
                          degenerate_central_frequencies, extract_dip_metrics,
                          extract_dip_profile, extract_fringe_metrics,
                          pump_coherence_length, run_sweep)

__all__ = [
    "SPEED_OF_LIGHT", "__version__",
    # errors
    "CarrierPhaseOverflowError", "InsufficientSamplingError", "NormalizationError",
    "ParseError", "ValidationError",
    # spectra
    "Gaussian", "JointSpectralDensity", "Lorentzian", "Separable", "SincSquared",
    "SpectralDensity", "Tabulated", "Tabulated2D",
    # pathgeom
    "CentralFrequencies", "PathConfiguration", "ReducedParameters", "SourceKind",
    "carrier_omegas", "carrier_wavenumbers",
    "cpdc_freq_inverse", "cpdc_freq_transform", "reduce_cpdc", "reduce_topdc",
    "topdc_freq_inverse", "topdc_freq_transform",
    # coherence
    "CoherenceValue", "DelayTriple", "coherence_surface", "gamma_prime",
    "gamma_pump", "transform_1d",
    # rates
    "AlternativeAmplitudes", "RateResult", "SourceModel", "rate_length",
    "rate_time",
    # oracle
    "LinearShift", "OracleConfig", "OracleTerm", "RatioErrorRow",
    "factorization_error_sweep", "factorized_interference_term",
    "interference_term_3d", "max_error_by_ratio",
    # experiments
    "DipMetrics", "DipProfile", "ExtremumKind", "FringeMetrics", "SweepSpec",
    "SweepTable", "SweepVariable", "category_i_spec", "category_ii_spec",
    "category_iii_specs", "degenerate_central_frequencies",
    "extract_dip_metrics", "extract_dip_profile", "extract_fringe_metrics",
    "pump_coherence_length", "run_sweep",
]
