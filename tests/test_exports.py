"""The package's public names: the list is pinned, and every name resolves, once."""

import inspect

import triphoton


def test_all_names_resolve_once():
    names = triphoton.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(triphoton, n)] == []


def test_export_list_is_pinned():
    # a removed or added public name is an API change: it shows here first
    assert sorted(triphoton.__all__) == [
        "AlternativeAmplitudes", "CarrierPhaseOverflowError", "CentralFrequencies",
        "CoherenceValue", "DelayTriple", "DipMetrics", "DipProfile", "ExtremumKind",
        "FringeMetrics", "Gaussian", "InsufficientSamplingError", "JointSpectralDensity",
        "LinearShift", "Lorentzian", "NormalizationError", "OracleConfig", "OracleTerm",
        "ParseError", "PathConfiguration", "RateResult", "RatioErrorRow",
        "ReducedParameters", "SPEED_OF_LIGHT", "Separable", "SincSquared", "SourceKind",
        "SourceModel", "SpectralDensity", "SweepSpec", "SweepTable", "SweepVariable",
        "Tabulated", "Tabulated2D", "ValidationError", "__version__", "carrier_omegas",
        "carrier_wavenumbers", "category_i_spec", "category_ii_spec", "category_iii_specs",
        "coherence_surface", "cpdc_freq_inverse", "cpdc_freq_transform",
        "degenerate_central_frequencies", "extract_dip_metrics", "extract_dip_profile",
        "extract_fringe_metrics", "factorization_error_sweep",
        "factorized_interference_term", "gamma_prime", "gamma_pump",
        "interference_term_3d", "max_error_by_ratio", "pump_coherence_length",
        "rate_length", "rate_time", "reduce_cpdc", "reduce_topdc", "run_sweep",
        "topdc_freq_inverse", "topdc_freq_transform", "transform_1d",
    ]


def test_star_import():
    # a name left in __all__ after its import is deleted breaks only this
    namespace = {}
    exec("from triphoton import *", namespace)
    assert set(triphoton.__all__) <= namespace.keys()


def test_no_public_callable_takes_method():
    # a density's kind alone picks its transform; no entry point offers a
    # choice of numerical path
    def takes_method(obj):
        try:
            return "method" in inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to inspect
            return False

    public = (getattr(triphoton, n) for n in triphoton.__all__)
    assert {obj.__name__ for obj in public if callable(obj) and takes_method(obj)} == set()
