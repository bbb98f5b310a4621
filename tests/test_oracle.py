import math
import random

import numpy as np
import pytest

from triphoton import oracle
from triphoton.coherence import DelayTriple
from triphoton.oracle import (INTERFERENCE_SCALE, LinearShift, OracleConfig,
                              factorization_error_sweep,
                              factorized_interference_term,
                              interference_term_3d, max_error_by_ratio)
from triphoton.pathgeom import CentralFrequencies
from triphoton.rates import SourceModel
from triphoton.spectra import Gaussian, Separable, Tabulated, Tabulated2D

CENTRALS = CentralFrequencies(2.4e15, 1.2e15, 1.2e15)
SIGMA_PM = 2e12


def gaussian_source(sigma_pump=1e12):
    pm = Separable(Gaussian(sigma=SIGMA_PM), Gaussian(sigma=SIGMA_PM))
    return SourceModel.cpdc(Gaussian(sigma=sigma_pump), pm, CENTRALS)


def triangle_source(width=2e12):
    tri = Tabulated([-width, 0.0, width], [0.0, 1.0, 0.0]).normalize()
    return SourceModel.cpdc(tri, Separable(tri, tri), CENTRALS)


class TestConfigValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(n_pump=16)

    def test_small_support_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(support_multiplier=2.0)

    def test_nonfinite_slope_rejected(self):
        with pytest.raises(ValueError):
            LinearShift(math.inf)


class TestUncoupledAgreement:
    def test_zero_delays_give_full_term(self):
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        t = interference_term_3d(gaussian_source(), DelayTriple(0, 0, 0), 0.0, cfg)
        assert t.value == pytest.approx(2.0, abs=1e-9)

    def test_matches_factorized_over_random_delays(self):
        rng = random.Random(61)
        src = gaussian_source()
        cfg = OracleConfig(n_pump=129, n_prime=129, n_dprime=129)
        for _ in range(10):
            d = DelayTriple(rng.uniform(-1.5, 1.5) / 1e12,
                            rng.uniform(-1.5, 1.5) / SIGMA_PM,
                            rng.uniform(-1.5, 1.5) / SIGMA_PM)
            phi = rng.uniform(0, 2 * math.pi)
            t = interference_term_3d(src, d, phi, cfg)
            fac = factorized_interference_term(src, d, phi)
            assert abs(t.value - fac) / INTERFERENCE_SCALE < 1e-5

    def test_imaginary_residue_small_for_even_densities(self):
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        t = interference_term_3d(gaussian_source(),
                                 DelayTriple(0.7e-12, 0.3e-12, -0.2e-12), 0.5, cfg)
        assert t.imag_residual < 1e-10 * INTERFERENCE_SCALE

    def test_deterministic(self):
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        d = DelayTriple(0.4e-12, 0.1e-12, 0.2e-12)
        a = interference_term_3d(gaussian_source(), d, 0.3, cfg)
        b = interference_term_3d(gaussian_source(), d, 0.3, cfg)
        assert a.value == b.value
        assert a.coarse_value == b.coarse_value


class TestConvergence:
    def test_order_two_on_kinked_density(self):
        # a triangle table makes the trapezoid error genuinely h^2; the
        # reference is the factorized engine's knot-exact quadrature
        src = triangle_source()
        w = 2e12
        d = DelayTriple(0.6 / w, 0.45 / w, 0.3 / w)
        ref = factorized_interference_term(src, d, 0.2)
        errs = []
        for n in (33, 65, 129):
            cfg = OracleConfig(n_pump=n, n_prime=n, n_dprime=n)
            errs.append(abs(interference_term_3d(src, d, 0.2, cfg).value - ref))
        orders = [math.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
        for order in orders:
            assert 1.8 < order < 2.2

    def test_coarse_grid_warning_fires_when_unresolved(self):
        src = triangle_source()
        w = 2e12
        d = DelayTriple(3.0 / w, 2.0 / w, 2.5 / w)
        coarse = interference_term_3d(
            src, d, 0.0, OracleConfig(n_pump=65, n_prime=65, n_dprime=65))
        fine = interference_term_3d(
            src, d, 0.0, OracleConfig(n_pump=513, n_prime=513, n_dprime=513))
        assert coarse.coarse_grid_warning
        assert not fine.coarse_grid_warning


class TestCoupling:
    def test_equal_bandwidths_break_factorization(self):
        # pump as wide as the phase matching with unit coupling: the
        # factorized result is off by more than a percent somewhere
        src = gaussian_source(sigma_pump=SIGMA_PM)
        cfg = OracleConfig(n_pump=97, n_prime=97, n_dprime=97,
                           pump_coupling=LinearShift(1.0))
        worst = 0.0
        for frac in (0.0, 0.5, 1.0, 1.5):
            d = DelayTriple(frac / SIGMA_PM, frac / SIGMA_PM, frac / SIGMA_PM)
            t = interference_term_3d(src, d, 0.0, cfg)
            fac = factorized_interference_term(src, d, 0.0)
            worst = max(worst, abs(t.value - fac) / INTERFERENCE_SCALE)
        assert worst > 1e-2

    def test_error_sweep_decreases_monotonically(self):
        src = gaussian_source()
        cfg = OracleConfig(n_pump=97, n_prime=97, n_dprime=97,
                           pump_coupling=LinearShift(1.0))
        delays = [DelayTriple(a / SIGMA_PM, b / SIGMA_PM, c / SIGMA_PM)
                  for a, b, c in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5),
                                  (1.0, 0.3, 0.8), (0.2, 1.2, 0.4)]]
        rows = factorization_error_sweep(src, delays, [1.0, 0.3, 0.1, 0.03, 0.01],
                                         cfg)
        by_ratio = max_error_by_ratio(rows)
        ratios = [r for r, _ in by_ratio]
        errs = [e for _, e in by_ratio]
        assert ratios == [1.0, 0.3, 0.1, 0.03, 0.01]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-6
        # regression pins from the first committed run of this sweep
        assert errs[0] > 1e-2
        assert 1e-6 < errs[-1] < 1e-4

    def test_uncoupled_sweep_error_is_quadrature_noise(self):
        src = gaussian_source()
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        delays = [DelayTriple(0.0, 0.0, 0.0), DelayTriple(0.4 / 1e12, 0.0, 0.0)]
        rows = factorization_error_sweep(src, delays, [0.5], cfg)
        assert all(r.rel_error < 1e-6 for r in rows)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            factorization_error_sweep(gaussian_source(), [DelayTriple(0, 0, 0)],
                                      [0.0], OracleConfig())


class TestExchangeSymmetry:
    def test_cpdc_bc_swap_with_dprime_negation(self):
        # even second phase-matching factor: swapping the b and c centrals
        # while negating the double-prime delay leaves the term unchanged
        rng = random.Random(67)
        pm = Separable(Gaussian(sigma=2e12), Gaussian(sigma=3e12))
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        for _ in range(5):
            wa = rng.uniform(1.5e15, 2.5e15)
            wb = rng.uniform(0.8e15, 1.4e15)
            wc = rng.uniform(0.8e15, 1.4e15)
            src = SourceModel.cpdc(Gaussian(sigma=1e12), pm,
                                   CentralFrequencies(wa, wb, wc))
            src_swapped = SourceModel.cpdc(Gaussian(sigma=1e12), pm,
                                           CentralFrequencies(wa, wc, wb))
            d = DelayTriple(rng.uniform(-1, 1) * 1e-12,
                            rng.uniform(-1, 1) * 5e-13,
                            rng.uniform(-1, 1) * 5e-13)
            d_neg = DelayTriple(d.delta_tau, d.delta_tau_prime, -d.delta_tau_dprime)
            phi = rng.uniform(0, 2 * math.pi)
            a = interference_term_3d(src, d, phi, cfg)
            b = interference_term_3d(src_swapped, d_neg, phi, cfg)
            assert b.value == pytest.approx(a.value, abs=1e-12)


class TestTabulated2DJoint:
    def test_tabulated_joint_matches_separable(self):
        g1 = np.linspace(-8 * SIGMA_PM, 8 * SIGMA_PM, 161)
        g2 = np.linspace(-8 * SIGMA_PM, 8 * SIGMA_PM, 161)
        v1 = np.exp(-g1 ** 2 / (2 * SIGMA_PM ** 2))
        v2 = np.exp(-g2 ** 2 / (2 * SIGMA_PM ** 2))
        pm2d = Tabulated2D(g1, g2, np.outer(v1, v2)).normalize()
        src_sep = gaussian_source()
        src_tab = SourceModel.cpdc(Gaussian(sigma=1e12), pm2d, CENTRALS)
        cfg = OracleConfig(n_pump=65, n_prime=65, n_dprime=65)
        d = DelayTriple(0.5e-12, 0.4 / SIGMA_PM, -0.2 / SIGMA_PM)
        a = interference_term_3d(src_sep, d, 0.3, cfg)
        b = interference_term_3d(src_tab, d, 0.3, cfg)
        assert b.value == pytest.approx(a.value, abs=2e-4)

    def test_tabulated_joint_coupled_path_runs(self):
        g = np.linspace(-8 * SIGMA_PM, 8 * SIGMA_PM, 129)
        v = np.exp(-g ** 2 / (2 * SIGMA_PM ** 2))
        pm2d = Tabulated2D(g, g, np.outer(v, v)).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=2e11), pm2d, CENTRALS)
        cfg = OracleConfig(n_pump=33, n_prime=65, n_dprime=65,
                           pump_coupling=LinearShift(1.0))
        t = interference_term_3d(src, DelayTriple(0, 0, 0), 0.0, cfg)
        # narrow pump: the coupling shift is tiny, the term stays near 2
        assert t.value == pytest.approx(2.0, abs=1e-2)

    @pytest.mark.parametrize("slope", [0.0, 0.7])
    def test_coupled_sum_matches_per_pump_row_loop(self, slope):
        # reference: the table evaluated on the full shifted (prime, dprime)
        # grid once per pump row, with no interpolation of partial sums
        g1 = 0.3 * SIGMA_PM + np.linspace(-8 * SIGMA_PM, 8 * SIGMA_PM, 97)
        g2 = np.linspace(-6 * SIGMA_PM, 6 * SIGMA_PM, 81)
        x, y = g1[:, None] / SIGMA_PM, g2[None, :] / (0.7 * SIGMA_PM)
        pm2d = Tabulated2D(g1, g2, np.exp(-(x * x - 1.2 * x * y + y * y) / 1.28)).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=1e12, center_offset=2e11), pm2d, CENTRALS)
        cfg = OracleConfig(n_pump=41, n_prime=65, n_dprime=49,
                           pump_coupling=LinearShift(slope))
        d = DelayTriple(0.6e-12, 0.35 / SIGMA_PM, -0.5 / SIGMA_PM)

        pump_axis, prime_axis, dprime_axis = oracle._axes(src, cfg)
        ep = (oracle._trapezoid_weights(pump_axis) * src.pump.evaluate(pump_axis)
              * np.exp(-1j * pump_axis * d.delta_tau))
        e1 = oracle._trapezoid_weights(prime_axis) * np.exp(-1j * prime_axis * d.delta_tau_prime)
        e2 = oracle._trapezoid_weights(dprime_axis) * np.exp(-1j * dprime_axis * d.delta_tau_dprime)
        ref = 0.0 + 0.0j
        for i in range(pump_axis.size):
            v = pm2d.evaluate(prime_axis[:, None] - slope * pump_axis[i], dprime_axis[None, :])
            ref += ep[i] * (e1 @ v @ e2)

        got = oracle._triple_sum(src, d, cfg)
        assert abs(ref) > 0.1
        assert abs(got - ref) <= 1e-12 * INTERFERENCE_SCALE
