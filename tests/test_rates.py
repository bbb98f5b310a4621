import math
import random

import numpy as np
import pytest

from triphoton.coherence import DelayTriple
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.errors import IntegrationError
from triphoton.pathgeom import (CentralFrequencies, ReducedParameters,
                                SourceKind, reduce_topdc)
from triphoton.rates import (AlternativeAmplitudes, SourceModel, rate_length,
                             rate_time)
from triphoton.spectra import Gaussian, Lorentzian, Separable, Tabulated2D
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


def test_cpdc_labeling_rejected_before_coherence_factors():
    # the 65x65-knot table cannot resolve a 1e-13 s delay, so computing g'
    # first would raise IntegrationError instead of the labeling error
    g = np.linspace(-3e14, 3e14, 65)
    pm = Tabulated2D(g, g, np.exp(-(g[:, None] ** 2 + g[None, :] ** 2)
                                  / 9e13 ** 2)).normalize()
    src = SourceModel.cpdc(Gaussian(sigma=1e12), pm,
                           CentralFrequencies(2.4e15, 1.3e15, 1.1e15))
    delays = DelayTriple(0.0, 0.0, 1e-13)
    with pytest.raises(IntegrationError):
        rate_time(src, delays, 0.0, AlternativeAmplitudes.balanced(1.0))
    with pytest.raises(ValueError, match="CPDC"):
        rate_time(src, delays, 0.0, AlternativeAmplitudes.balanced(1.0), choice=2)


def test_sourcekind_tag():
    assert gaussian_cpdc().kind is SourceKind.CPDC
    assert gaussian_topdc().kind is SourceKind.TOPDC
