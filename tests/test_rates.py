import math
import random
import re

import numpy as np
import pytest

import quadrature_engine as engine
from quadrature_engine import IntegrationError
from triphoton import coherence, rates
from triphoton.coherence import DelayTriple, _polar, joint_transforms, transforms
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.errors import CarrierPhaseOverflowError
from triphoton.pathgeom import (CentralFrequencies, ReducedParameters,
                                SourceKind, reduce_topdc)
from triphoton.rates import (AlternativeAmplitudes, SourceModel, rate_length,
                             rate_time)
from triphoton.spectra import Gaussian, Lorentzian, Separable, Tabulated
from test_experiments import SOURCES, _W
from test_pathgeom import random_config

ZERO = DelayTriple(0.0, 0.0, 0.0)


def gaussian_cpdc(sigma_pump=1e12, sigma1=2e12, sigma2=3e12,
                  centrals=CentralFrequencies(2.4e15, 1.2e15, 1.2e15)):
    return SourceModel.cpdc(Gaussian(sigma=sigma_pump),
                            Separable(Gaussian(sigma=sigma1), Gaussian(sigma=sigma2)),
                            centrals)


def gaussian_topdc(centrals=CentralFrequencies(1.1e15, 1.3e15, 0.9e15)):
    return SourceModel.topdc(Gaussian(sigma=5e12),
                             Separable(Gaussian(sigma=1e13), Gaussian(sigma=2e13)),
                             centrals)


class TestEqualAmplitudes:
    def test_zero_delays_constructive(self):
        r = rate_time(gaussian_cpdc(), ZERO, 0.0, AlternativeAmplitudes.balanced(1.0))
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        assert r.visibility_bound == pytest.approx(1.0, abs=1e-12)

    def test_zero_delays_destructive(self):
        r = rate_time(gaussian_cpdc(), ZERO, math.pi,
                      AlternativeAmplitudes.balanced(1.0))
        assert r.rate == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_pump_coherence_point(self):
        # delay of one pump coherence time with the carrier phase nulled
        sigma = 1e12
        src = gaussian_cpdc(sigma_pump=sigma)
        delays = DelayTriple(1.0 / sigma, 0.0, 0.0)
        delta_phi = -src.centrals.omega_p0 * delays.delta_tau
        r = rate_time(src, delays, delta_phi, AlternativeAmplitudes.balanced(1.0))
        assert r.cosine_argument == pytest.approx(0.0, abs=1e-6)
        assert r.rate == pytest.approx(1.6065306597126334, rel=1e-9)


class TestLengthForm:
    def test_full_wavelength_is_constructive(self):
        # essentially constant pump coherence over one wavelength
        src = gaussian_cpdc(sigma_pump=1e3)
        lam = 2 * math.pi * SPEED_OF_LIGHT / src.centrals.omega_p0
        amps = AlternativeAmplitudes.balanced(1.0)
        r = rate_length(src, ReducedParameters(lam, 0.0, 0.0, 0.0), amps)
        assert r.rate == pytest.approx(2.0, abs=1e-9)
        r = rate_length(src, ReducedParameters(lam / 2, 0.0, 0.0, 0.0), amps)
        assert r.rate == pytest.approx(0.0, abs=1e-9)

    def test_length_and_time_forms_agree(self):
        rng = random.Random(41)
        src = gaussian_cpdc()
        amps = AlternativeAmplitudes(0.6, 0.9, 1.3)
        for _ in range(50):
            params = ReducedParameters(rng.uniform(-1e-5, 1e-5),
                                       rng.uniform(-1e-5, 1e-5),
                                       rng.uniform(-1e-5, 1e-5),
                                       rng.uniform(0, 2 * math.pi))
            delays = DelayTriple.from_lengths(params.delta_l, params.delta_l_prime,
                                              params.delta_l_dprime)
            a = rate_length(src, params, amps)
            b = rate_time(src, delays, params.delta_phi, amps)
            assert a.rate == pytest.approx(b.rate, rel=1e-12)
            assert a.cosine_argument == b.cosine_argument

    def test_phase_period_two_pi(self):
        src = gaussian_cpdc()
        amps = AlternativeAmplitudes.balanced(1.0)
        delays = DelayTriple(1e-13, 2e-13, -1e-13)
        for phi in (0.0, 0.7, 2.0, 5.5):
            a = rate_time(src, delays, phi, amps)
            b = rate_time(src, delays, phi + 2 * math.pi, amps)
            assert b.rate == pytest.approx(a.rate, abs=1e-12)


class TestGeneralAmplitudes:
    def test_single_alternative_no_interference(self):
        amps = AlternativeAmplitudes(k1_mag=1.3, k2_mag=0.0, c_mag_sq=0.7)
        r = rate_time(gaussian_cpdc(), ZERO, 0.3, amps)
        assert r.rate == pytest.approx(0.7 * 1.3 ** 2, rel=1e-12)
        assert r.visibility_bound == 0.0

    def test_unequal_amplitude_bracket_value(self):
        # K1=1, K2=1/2 at the fully destructive point:
        # 1 + 1/4 + 2*(1/2)*(-1) = 1/4
        amps = AlternativeAmplitudes(k1_mag=1.0, k2_mag=0.5, c_mag_sq=1.0)
        r = rate_time(gaussian_cpdc(), ZERO, math.pi, amps)
        assert r.gamma_mag == pytest.approx(1.0, abs=1e-12)
        assert r.gamma_prime_mag == pytest.approx(1.0, abs=1e-12)
        assert r.rate == pytest.approx(0.25, abs=1e-12)

    def test_nonnegative_for_random_inputs(self):
        rng = random.Random(43)
        src = gaussian_cpdc()
        for _ in range(200):
            amps = AlternativeAmplitudes(rng.uniform(0, 2), rng.uniform(0, 2),
                                         rng.uniform(0.1, 3))
            delays = DelayTriple(rng.uniform(-3e-12, 3e-12),
                                 rng.uniform(-3e-13, 3e-13),
                                 rng.uniform(-3e-13, 3e-13))
            r = rate_time(src, delays, rng.uniform(0, 2 * math.pi), amps)
            assert r.rate >= -1e-12
            assert 0.0 <= r.visibility_bound <= 1.0 + 1e-9

    def test_rate_reconstruction_identity(self):
        r = rate_time(gaussian_cpdc(), DelayTriple(2e-13, 1e-13, 0.0), 0.4,
                      AlternativeAmplitudes(0.8, 0.3, 1.1))
        rebuilt = r.baseline * (1.0 + r.visibility_bound * math.cos(r.cosine_argument))
        assert r.rate == rebuilt


class TestAmplitudeValidation:
    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            AlternativeAmplitudes(-0.1, 1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            AlternativeAmplitudes(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            AlternativeAmplitudes.balanced(0.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: AlternativeAmplitudes(math.inf, 1.0),
         "k1_mag must be finite and >= 0, got inf"),
        (lambda: AlternativeAmplitudes.balanced(math.inf),
         "total_scale must be finite and positive, got inf"),
        (lambda: AlternativeAmplitudes(1.0, 1.0, math.inf),
         "c_mag_sq must be finite and positive, got inf"),
        (lambda: AlternativeAmplitudes(1e200, 1e200), "the peak rate .* overflows"),
        (lambda: AlternativeAmplitudes(1.0, 1e154, 1.0), "the peak rate .* overflows"),
    ], ids=["k1_inf", "balanced_inf", "c_mag_sq_inf", "k1_k2_overflow", "twice_overflows"])
    def test_non_finite_or_overflowing_amplitudes_rejected(self, make, message):
        # before the check these gave nan or inf rates, or an OverflowError
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_balanced_baseline(self):
        amps = AlternativeAmplitudes.balanced(3.0)
        assert amps.baseline == pytest.approx(3.0, rel=1e-12)
        assert amps.amplitude_visibility == pytest.approx(1.0, rel=1e-15)


class TestTopdcChoiceEquivalence:
    def test_rate_identical_across_choices(self):
        rng = random.Random(47)
        amps = AlternativeAmplitudes.balanced(1.0)
        for _ in range(100):
            p = random_config(rng, length_scale=1e-5)
            centrals = CentralFrequencies(rng.uniform(1e15, 2.5e15),
                                          rng.uniform(1e15, 2.5e15),
                                          rng.uniform(1e15, 2.5e15))
            src = SourceModel.topdc(
                Gaussian(sigma=rng.uniform(5e12, 2e13)),
                Separable(Gaussian(sigma=rng.uniform(1e13, 4e13)),
                          Gaussian(sigma=rng.uniform(1e13, 4e13))),
                centrals)
            rates = [rate_length(src, reduce_topdc(p, c), amps).rate
                     for c in (1, 2, 3)]
            scale = max(abs(rates[0]), 1e-6)
            assert abs(rates[1] - rates[0]) <= 1e-12 * scale
            assert abs(rates[2] - rates[0]) <= 1e-12 * scale

    def test_choice_equivalence_with_lorentzian_factors(self):
        # the delay remapping is exact for any density shape
        amps = AlternativeAmplitudes.balanced(1.0)
        p = random_config(random.Random(53), length_scale=1e-5)
        src = SourceModel.topdc(
            Gaussian(sigma=1e13),
            Separable(Lorentzian(gamma=2e13), Lorentzian(gamma=3e13)),
            CentralFrequencies(1.2e15, 1.2e15, 1.2e15))
        rates = [rate_length(src, reduce_topdc(p, c), amps).rate for c in (1, 2, 3)]
        assert rates[1] == pytest.approx(rates[0], rel=1e-12)
        assert rates[2] == pytest.approx(rates[0], rel=1e-12)


def test_cpdc_rejects_topdc_choices():
    src = gaussian_cpdc()
    params = ReducedParameters(0.0, 0.0, 0.0, 0.0, topdc_choice=2)
    with pytest.raises(ValueError):
        rate_length(src, params, AlternativeAmplitudes.balanced(1.0))


def test_cpdc_labeling_rejected_before_coherence_factors(monkeypatch):
    # the labeling is checked before any table transform runs
    g = np.linspace(-3e14, 3e14, 65)
    table = Tabulated(g, np.exp(-g ** 2 / 9e13 ** 2)).normalize()
    src = SourceModel.cpdc(table, Separable(table, table),
                           CentralFrequencies(2.4e15, 1.3e15, 1.1e15))
    calls = []
    fourier = coherence._segmented_fourier
    monkeypatch.setattr(coherence, "_segmented_fourier",
                        lambda *a: calls.append(a) or fourier(*a))
    delays = DelayTriple(0.0, 0.0, 1e-9)
    rate_time(src, delays, 0.0, AlternativeAmplitudes.balanced(1.0))
    assert len(calls) == 3  # pump, then both phase-matching axes
    calls.clear()
    with pytest.raises(ValueError, match="CPDC"):
        rate_time(src, delays, 0.0, AlternativeAmplitudes.balanced(1.0), choice=2)
    assert calls == []


class TestCarrierPhaseOverflow:
    """Every delay is finite, but the carrier phase w*tau is not: the scalar
    entry points reject it before any coherence factor is computed (before,
    they returned rate = nan with overflow RuntimeWarnings)."""

    @pytest.fixture
    def transform_calls(self, monkeypatch):
        calls = []
        for cls in (Gaussian, Lorentzian):
            monkeypatch.setattr(cls, "analytic_transform", lambda self, *a,
                                _f=cls.analytic_transform: calls.append(a) or _f(self, *a))
        return calls

    @pytest.mark.parametrize("delays, delta_phi, message", [
        (DelayTriple(1e300, 0.0, 0.0), 0.0,
         "delta_tau = 1e+300, delta_tau_prime = 0.0, delta_tau_dprime = 0.0 s, "
         "delta_phi = 0.0 rad"),
        # each term is finite, their sum is not
        (DelayTriple(7e292, 0.0, 0.0), 1.7e308,
         "delta_tau = 7e+292, delta_tau_prime = 0.0, delta_tau_dprime = 0.0 s, "
         "delta_phi = 1.7e+308 rad"),
        # an int beyond int64 is its float: it once made numpy's isfinite raise
        # a TypeError on an object array
        (DelayTriple(10 ** 300, 0, 0), 0.0,
         "delta_tau = 1e+300, delta_tau_prime = 0.0, delta_tau_dprime = 0.0 s, "
         "delta_phi = 0.0 rad"),
    ], ids=["term_overflows", "sum_overflows", "int_term_overflows"])
    def test_rate_time_rejects_overflowing_phase(self, transform_calls, delays,
                                                 delta_phi, message):
        source = SourceModel.cpdc(Lorentzian(gamma=1e12),
                                  Separable(Gaussian(sigma=2e12), Gaussian(sigma=3e12)),
                                  CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
        with pytest.raises(CarrierPhaseOverflowError,
                           match=f"^{re.escape('the carrier phase overflows at ' + message)}$"):
            rate_time(source, delays, delta_phi, AlternativeAmplitudes.balanced())
        assert transform_calls == []

    def test_rate_length_rejects_overflowing_phase(self, transform_calls):
        for delta_l in (1e308, 10 ** 308):  # an int beyond int64 is its float
            with pytest.raises(CarrierPhaseOverflowError, match="^the carrier phase overflows"):
                rate_length(gaussian_cpdc(), ReducedParameters(delta_l, 0, 0),
                            AlternativeAmplitudes.balanced())
        assert transform_calls == []


@pytest.mark.parametrize("big", [2 ** 63, -(10 ** 20), 10 ** 30],
                         ids=["2**63", "-10**20", "10**30"])
def test_int_beyond_int64_gives_its_floats_rate(big):
    # such an int reached numpy as an object or uint64 column
    amps, src = AlternativeAmplitudes.balanced(), gaussian_cpdc()
    for field in range(3):
        ints, floats = [0] * 3, [0.0] * 3
        ints[field], floats[field] = big, float(big)
        assert (repr(rate_time(src, DelayTriple(*ints), 0, amps))
                == repr(rate_time(src, DelayTriple(*floats), 0.0, amps)))
        assert (repr(rate_length(src, ReducedParameters(*ints), amps))
                == repr(rate_length(src, ReducedParameters(*floats), amps)))


@pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400)], ids=["10**400", "-10**400"])
def test_int_too_large_for_a_float_named_by_both_entry_points(big):
    # it once ended in a bare OverflowError
    amps, src = AlternativeAmplitudes.balanced(), gaussian_cpdc()
    with pytest.raises(ValueError, match="^delta_tau_prime is too large for a float$"):
        rate_time(src, DelayTriple(0, big, 0), 0.0, amps)
    with pytest.raises(ValueError, match="^delta_l is too large for a float$"):
        rate_length(src, ReducedParameters(big, 0, 0), amps)


def _factor(source: str, joint: bool):
    src = SOURCES[source](SourceKind.TOPDC)
    return (joint_transforms, src.phase_matching) if joint else (transforms, src.pump)


def _alone(core, density, columns):
    """Each row's polar form computed alone."""
    return [_polar(core(density, *(c[i:i + 1] for c in columns)))
            for i in range(columns[0].size)]


_CAP = 1e-8  # s: over the quadrature engine's piece cap on these tables


class TestFactorColumns:
    """``rates._factor_columns`` passes a column that holds one delay on every
    row as its first row, and any other whole, in one call; a factor whose
    columns all hold is computed once. Either way each row gets the bits its
    delays give alone."""

    @pytest.mark.parametrize("source", list(SOURCES))
    @pytest.mark.parametrize("columns, calls", [
        ([[0.3, -1.1, 0.3, 0.3, 0.7, -1.1]], [(6,)]),  # repeated, not all equal
        ([[0.0, -0.0, 0.0, -0.0]], [(1,)]),
        ([[-0.0, 0.0, 0.0]], [(1,)]),
        ([[0.3, 0.3, -1.1, 0.3, 0.3], [0.7, -0.2, 0.7, 0.7, -0.2]], [(5, 5)]),
        ([[0.3, 0.3, 0.3, 0.3], [0.7, -0.2, 0.7, 0.7]], [(1, 4)]),
        ([[0.7, -0.2, 0.7, 0.7], [0.3, 0.3, 0.3, 0.3]], [(4, 1)]),
        ([[-0.0, 0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]], [(1, 1)]),
        ([[0.4, 0.4, 0.4, 0.4], [0.0, -0.0, -0.0, 0.0]], [(1, 1)]),
        ([[0.0, -0.0, 0.0], [0.7, -0.2, 0.7]], [(1, 3)]),
    ], ids=["repeated", "signed_zeros", "signed_zeros_minus_first", "repeated_pairs",
            "one_column_fixed", "other_column_fixed", "signed_zero_pairs",
            "signed_zero_in_one_column", "signed_zeros_in_the_fixed_column"])
    def test_rows_equal_their_values_alone(self, source, columns, calls):
        core, density = _factor(source, joint=len(columns) == 2)
        columns = [np.array(c) / _W for c in columns]
        sizes = []
        spy = lambda d, *c: sizes.append(tuple(x.size for x in c)) or core(d, *c)  # noqa: E731
        mag, phase = rates._factor_columns(spy, density, *columns)
        assert sizes == calls
        assert [(m.tobytes(), p.tobytes()) for m, p in zip(mag, phase)] == [
            (m.tobytes(), p.tobytes()) for m, p in _alone(core, density, columns)]

    @pytest.mark.parametrize("source, columns", [
        ("tabulated", [[0.0, 3e-15, 0.0, _CAP, 3e-15, _CAP]]),
        ("tabulated", [[_CAP, _CAP, _CAP]]),
        ("tabulated", [[0.0, 0.0, 0.0, _CAP], [0.0, _CAP, 0.0, 0.0]]),
        ("tabulated", [[0.0, 3e-15, _CAP, 3e-15, _CAP], [0.0] * 5]),
        ("tabulated", [[_CAP, _CAP, _CAP], [0.0, -0.0, 0.0]]),
    ], ids=["repeated", "fixed", "separable_pairs", "table_pairs", "fixed_table_pair"])
    def test_rows_past_the_engines_piece_cap_equal_their_values_alone(self, source, columns):
        # the quadrature engine refused these delays; the closed form gives
        # every row, and a row's bits do not depend on its neighbours
        core, density = _factor(source, joint=len(columns) == 2)
        columns = [np.array(c) for c in columns]
        with pytest.raises(IntegrationError):
            engine.transform(density.d1 if len(columns) == 2 else density, columns[0])
        mag, phase = rates._factor_columns(core, density, *columns)
        assert np.all(np.isfinite(phase)) and np.all(mag <= 1.0 + 1e-12)
        assert [(m.tobytes(), p.tobytes()) for m, p in zip(mag, phase)] == [
            (m.tobytes(), p.tobytes()) for m, p in _alone(core, density, columns)]


def test_sourcekind_tag():
    assert gaussian_cpdc().kind is SourceKind.CPDC
    assert gaussian_topdc().kind is SourceKind.TOPDC
