import math
import random
import re
import warnings
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import coherence, oracle
from triphoton.coherence import DelayTriple
from triphoton.errors import CarrierPhaseOverflowError
from triphoton.oracle import (INTERFERENCE_SCALE, LinearShift, OracleConfig,
                              factorization_error_sweep,
                              factorized_interference_term,
                              interference_term_3d, max_error_by_ratio)
from triphoton.pathgeom import CentralFrequencies, carrier_omegas
from triphoton.rates import SourceModel
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared, Tabulated,
                               Tabulated2D, joint_widths)

CENTRALS = CentralFrequencies(2.4e15, 1.2e15, 1.2e15)
SIGMA_PM = 2e12


def _columns(delays):
    """The delay columns ``(dt, dt', dt'')`` of a list of delay triples."""
    return tuple(np.array(c, dtype=float) for c in zip(*map(astuple, delays)))


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

    @pytest.mark.parametrize("name", ["n_pump", "n_prime", "n_dprime"])
    @pytest.mark.parametrize("value", [64.0, 64.5])
    def test_non_integer_grid_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            OracleConfig(**{name: value})

    def test_numpy_integer_grid_accepted(self):
        cfg = OracleConfig(n_pump=np.int64(33), n_prime=np.int32(40), n_dprime=np.uint16(36))
        t = interference_term_3d(gaussian_source(), DelayTriple(0, 0, 0), 0.0, cfg)
        assert t.value == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("value", [math.inf, np.float64(np.inf)])
    def test_infinite_support_rejected(self, value):
        with pytest.raises(ValueError, match="^support_multiplier must be finite, got inf$"):
            OracleConfig(support_multiplier=value)


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
        # reference is the factorized term's exact transform of the table
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


def _exact_coupled_term(source, delays, delta_phi, slope):
    """2 Re[exp(-i phi) g(dt + s dt') g'(dt', dt'')], phi the carrier phase: with
    ``LinearShift(s)``, x = w' - s w splits the oracle's integrand exactly into
    the pump transform at dt + s dt' times the phase-matching transform."""
    dt, dt_prime, dt_dprime = astuple(delays)
    w_p0, w0_prime, w0_dprime = carrier_omegas(source.centrals, source.kind)
    phi = w_p0 * dt + w0_prime * dt_prime + w0_dprime * dt_dprime + delta_phi
    z = complex(coherence.transforms(source.pump, dt + slope * dt_prime)) * complex(
        coherence.joint_transforms(source.phase_matching, dt_prime, dt_dprime))
    return 2.0 * (complex(math.cos(phi), -math.sin(phi)) * z).real


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(slope=_unit, ratio=st.floats(0.05, 1.0), widths=st.tuples(*[st.floats(0.5, 2.0)] * 2),
       offsets=st.tuples(_unit, _unit, _unit),
       delays=st.tuples(*[st.floats(-3.0, 3.0)] * 3), delta_phi=st.floats(0.0, 2 * math.pi))
def test_coupled_oracle_equals_exact_shifted_product(slope, ratio, widths, offsets, delays,
                                                     delta_phi):
    # Gaussian tails end below double precision inside the default window, so
    # the 129^3 tensor sum is exact to rounding, centre offsets included
    sigmas = (ratio * SIGMA_PM, widths[0] * SIGMA_PM, widths[1] * SIGMA_PM)
    pump, d1, d2 = (Gaussian(sigma=s, center_offset=o * s) for s, o in zip(sigmas, offsets))
    source = SourceModel.cpdc(pump, Separable(d1, d2), CENTRALS)
    d = DelayTriple(*(t / s for t, s in zip(delays, sigmas)))
    cfg = OracleConfig(pump_coupling=LinearShift(slope))
    got = interference_term_3d(source, d, delta_phi, cfg).value
    assert got == pytest.approx(_exact_coupled_term(source, d, delta_phi, slope), abs=1e-12)


_SHAPES = st.tuples(*[st.sampled_from([Gaussian, Lorentzian, SincSquared])] * 3).filter(
    lambda shapes: shapes != (Gaussian,) * 3)  # at least one heavy tail


@settings(max_examples=60, deadline=None)
@given(shapes=_SHAPES, slope=_unit, ratio=st.floats(0.05, 1.0),
       widths=st.tuples(*[st.floats(0.5, 2.0)] * 2), offsets=st.tuples(_unit, _unit, _unit),
       delays=st.tuples(*[st.floats(-3.0, 3.0)] * 3), delta_phi=st.floats(0.0, 2 * math.pi))
def test_coupled_oracle_within_its_flags_of_exact_on_heavy_tails(shapes, slope, ratio, widths,
                                                                offsets, delays, delta_phi):
    # a heavy tail beyond the window and a coarse 129^3 grid are what the
    # oracle's own flags measure, so they bound its distance to the exact term
    scales = (ratio * SIGMA_PM, widths[0] * SIGMA_PM, widths[1] * SIGMA_PM)
    pump, d1, d2 = (shape(s, center_offset=o * s)
                    for shape, s, o in zip(shapes, scales, offsets))
    source = SourceModel.cpdc(pump, Separable(d1, d2), CENTRALS)
    d = DelayTriple(*(t / x.characteristic_width for t, x in zip(delays, (pump, d1, d2))))
    term = interference_term_3d(source, d, delta_phi, OracleConfig(pump_coupling=LinearShift(slope)))
    gap = abs(term.value - _exact_coupled_term(source, d, delta_phi, slope)) / INTERFERENCE_SCALE
    assert gap <= term.tail_mass + term.coarse_rel_change


@pytest.mark.parametrize("seed", range(12))
def test_coupled_oracle_within_its_flags_of_exact_on_a_table(seed):
    # a table is one function to both engines, its bilinear interpolant, so
    # the exact shifted product holds with the library's own g' of the table.
    # Fixed seeds: the flags estimate the grid's error rather than bound it
    # (on seeds 12-79, 5 of 68 gaps exceeded them, by at most 2.8 times)
    rng = np.random.default_rng(seed)
    w1, w2 = rng.uniform(0.5, 2.0, 2) * SIGMA_PM
    pm = _gaussian_table(rng.uniform(-0.7, 0.7), w1, w2, n=161)
    pump = Gaussian(sigma=rng.uniform(0.05, 1.0) * SIGMA_PM,
                    center_offset=rng.uniform(-1.0, 1.0) * SIGMA_PM)
    source = SourceModel.cpdc(pump, pm, CENTRALS)
    widths = (pump.sigma, w1, w2)
    d = DelayTriple(*(t / w for t, w in zip(rng.uniform(-3.0, 3.0, 3), widths)))
    slope, delta_phi = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2 * math.pi)
    term = interference_term_3d(source, d, delta_phi, OracleConfig(pump_coupling=LinearShift(slope)))
    gap = abs(term.value - _exact_coupled_term(source, d, delta_phi, slope)) / INTERFERENCE_SCALE
    assert gap <= term.tail_mass + term.coarse_rel_change


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

        got = oracle._triple_sum(src, _columns([d]), cfg)[0]
        assert abs(ref) > 0.1
        assert abs(got - ref) <= 1e-12 * INTERFERENCE_SCALE


def _knot_row_terms(source, delays, cfg):
    """``(ep, e1, e2, shifted, rows)``: the weighted phase columns of the three
    axes, the shifted prime detunings, and the table at its prime knots over
    the double-prime axis from a full 2D evaluation (the form before the
    knot-row contraction)."""
    pump_axis, prime_axis, dprime_axis = oracle._axes(source, cfg)
    ep = (oracle._trapezoid_weights(pump_axis) * np.asarray(source.pump.evaluate(pump_axis))
          * np.exp(-1j * pump_axis * delays.delta_tau))
    e1 = oracle._trapezoid_weights(prime_axis) * np.exp(-1j * prime_axis * delays.delta_tau_prime)
    e2 = oracle._trapezoid_weights(dprime_axis) * np.exp(-1j * dprime_axis * delays.delta_tau_dprime)
    shifted = prime_axis[None, :] - cfg.slope * pump_axis[:, None]
    pm = source.phase_matching
    rows = np.asarray(pm.evaluate(pm.grid1[:, None], dprime_axis[None, :]))
    return ep, e1, e2, shifted, rows


def _knot_row_reference_sum(source, delays, cfg):
    """The tensor sum with the double-prime column from a full 2D evaluation
    of the table at its prime knots, cast to complex in the oracle's memory
    order (the two orders' complex products round apart) and interpolated
    as one complex column."""
    ep, e1, e2, shifted, rows = _knot_row_terms(source, delays, cfg)
    grid1 = source.phase_matching.grid1
    col = rows.astype(complex, order="F") @ e2
    profile = np.interp(shifted, grid1, col, left=0.0, right=0.0)
    return complex(ep @ (profile @ e1))


def _two_real_interpolation_sum(source, delays, cfg):
    """The tensor sum as the oracle took it before its single complex
    interpolation: numpy's own cast of the real matrix in the product, and
    the column's real and imaginary parts interpolated apart."""
    ep, e1, e2, shifted, rows = _knot_row_terms(source, delays, cfg)
    grid1 = source.phase_matching.grid1
    col = rows @ e2
    profile = (np.interp(shifted, grid1, col.real, left=0.0, right=0.0)
               + 1j * np.interp(shifted, grid1, col.imag, left=0.0, right=0.0))
    return complex(ep @ (profile @ e1))


def _each_delay(triple_sum):
    """A one-delay tensor sum in the signature of the oracle's ``_triple_sum``,
    which takes the delay columns ``(dt, dt', dt'')`` and returns their sums."""
    return lambda source, delays, cfg: np.array(
        [triple_sum(source, DelayTriple(*row), cfg) for row in zip(*delays)])


def _jittered_grid(rng, n, span):
    # spacings vary up to 15x within one axis
    steps = rng.uniform(1.0, 15.0, n - 1)
    g = np.concatenate(([0.0], np.cumsum(steps)))
    return span * (g / g[-1] - 0.5) + rng.uniform(-0.2, 0.2) * span


def _random_joint_table(rng):
    n1 = 2 if rng.random() < 0.2 else int(rng.integers(3, 60))
    n2 = 2 if rng.random() < 0.2 else int(rng.integers(3, 60))
    g1 = _jittered_grid(rng, n1, rng.uniform(4, 16) * SIGMA_PM)
    g2 = _jittered_grid(rng, n2, rng.uniform(4, 16) * SIGMA_PM)
    values = rng.uniform(0.0, 1.0, (n1, n2))
    if rng.random() < 0.6:  # a block of exact zeros, at most half of each axis
        a, b = rng.integers(0, n1), rng.integers(0, n2)
        values[a:a + max(1, n1 // 2), b:b + max(1, n2 // 2)] = 0.0
    return Tabulated2D(g1, g2, values).normalize()


class TestKnotRowContraction:
    """The Tabulated2D tensor sum equals, bit for bit, the sum that reads the
    double-prime column from a full 2D evaluation at the prime knots, and
    lies within 1e-15 of that sum with two real interpolations."""

    @pytest.mark.parametrize("seed, coupling", [(1, None), (2, LinearShift(0.0)),
                                                (3, LinearShift(0.6)), (4, LinearShift(-0.9))])
    def test_equals_two_dimensional_column(self, monkeypatch, seed, coupling):
        rng = np.random.default_rng(seed)
        for _ in range(12):
            pm2d = _random_joint_table(rng)
            pump = Gaussian(sigma=rng.uniform(0.2, 2.0) * SIGMA_PM,
                            center_offset=rng.uniform(-0.5, 0.5) * SIGMA_PM)
            src = SourceModel.cpdc(pump, pm2d, CENTRALS)
            n_pump, n_prime, n_dprime = (int(n) for n in rng.integers(32, 90, 3))
            cfg = OracleConfig(n_pump=n_pump, n_prime=n_prime, n_dprime=n_dprime,
                               pump_coupling=coupling)
            d = DelayTriple(*(rng.uniform(-1.5, 1.5, 3) / SIGMA_PM))
            phi = float(rng.uniform(0, 2 * math.pi))

            total = oracle._triple_sum(src, _columns([d]), cfg)[0]
            assert total == _knot_row_reference_sum(src, d, cfg)
            assert abs(total - _two_real_interpolation_sum(src, d, cfg)) <= 1e-15
            got = interference_term_3d(src, d, phi, cfg)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_triple_sum", _each_delay(_knot_row_reference_sum))
                want = interference_term_3d(src, d, phi, cfg)
            assert got.value == want.value
            assert got.imag_residual == want.imag_residual
            assert got.coarse_value == want.coarse_value


class _CountingInterp:
    # numpy as `oracle` sees it, counting the calls of interp
    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name != "interp":
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


class TestInterpolationCost:
    @pytest.mark.parametrize("coupling", [None, LinearShift(0.8)])
    def test_one_interp_call_per_delay(self, monkeypatch, coupling):
        # the knot-row column is interpolated as one complex column
        pm2d = _gaussian_table(0.5, SIGMA_PM, SIGMA_PM, n=41)
        src = SourceModel.cpdc(Gaussian(sigma=1e12), pm2d, CENTRALS)
        delays = [DelayTriple(0.3e-12 * k, 0.2 / SIGMA_PM, -0.1 * k / SIGMA_PM)
                  for k in range(5)]
        proxy = _CountingInterp()
        monkeypatch.setattr(oracle, "np", proxy)
        oracle._triple_sum(src, _columns(delays),
                           OracleConfig(n_pump=33, n_prime=48, n_dprime=40,
                                        pump_coupling=coupling))
        assert proxy.calls == len(delays)


class TestTabulated2DReadsKnotRows:
    @pytest.mark.parametrize("coupling", [None, LinearShift(0.8)])
    def test_no_two_dimensional_evaluation(self, monkeypatch, coupling):
        # the double-prime sum reads the table's own rows at its prime knots
        g1 = np.linspace(-8 * SIGMA_PM, 8 * SIGMA_PM, 41)
        g2 = np.linspace(-6 * SIGMA_PM, 6 * SIGMA_PM, 33)
        x, y = g1[:, None] / SIGMA_PM, g2[None, :] / SIGMA_PM
        pm2d = Tabulated2D(g1, g2, np.exp(-(x * x - x * y + y * y) / 1.5)).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=1e12), pm2d, CENTRALS)
        calls = []
        evaluate = Tabulated2D.evaluate
        monkeypatch.setattr(Tabulated2D, "evaluate",
                            lambda self, *a: calls.append(a) or evaluate(self, *a))
        cfg = OracleConfig(n_pump=33, n_prime=48, n_dprime=40, pump_coupling=coupling)
        t = interference_term_3d(src, DelayTriple(0.3e-12, 0.2 / SIGMA_PM, -0.1 / SIGMA_PM),
                                 0.0, cfg)
        assert math.isfinite(t.value)
        assert calls == []


def _ratio_source(source, ratio):
    """The source a factorization sweep evaluates at ``ratio``."""
    pm_width, _ = joint_widths(source.phase_matching)
    factor = ratio * pm_width / source.pump.characteristic_width
    return source.with_pump(source.pump.with_width_scaled(factor))


def _gaussian_table(rho, w1, w2, n=97):
    g = np.linspace(-8, 8, n)
    x, y = g[:, None], g[None, :]
    return Tabulated2D(g * w1, g * w2, np.exp(-(x * x - 2 * rho * x * y + y * y)
                                              / (2 * (1 - rho * rho)))).normalize()


_SHAPES = (Gaussian, Lorentzian, SincSquared)
_widths = st.floats(0.5, 2.0).map(lambda f: f * SIGMA_PM)
_offsets = st.floats(-0.3, 0.3).map(lambda f: f * SIGMA_PM)
_delay_widths = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.5, 1.5))


@st.composite
def _sweep_sources(draw):
    kind = draw(st.sampled_from([*_SHAPES, Tabulated]))
    if kind is Tabulated:  # the exact 1D table transform
        pump = Tabulated([-SIGMA_PM, 0.0, 0.5 * SIGMA_PM, SIGMA_PM],
                         [0.0, 1.0, 0.6, 0.0], center_offset=draw(_offsets)).normalize()
    else:
        pump = kind(draw(_widths), center_offset=draw(_offsets))
    if draw(st.booleans()):  # at most 1.5 table widths of delay, which the 2D engine resolves
        table_widths = st.floats(0.5, 1.0).map(lambda f: f * SIGMA_PM)
        pm = _gaussian_table(draw(st.floats(-0.6, 0.6)), draw(table_widths), draw(table_widths))
    else:
        pm = Separable(*(draw(st.sampled_from(_SHAPES))(draw(_widths),
                                                         center_offset=draw(_offsets))
                         for _ in range(2)))
    return SourceModel.cpdc(pump, pm, CENTRALS)


class TestBatchedSweep:
    """The sweep builds each ratio's grids once and g' once per delay, yet
    every row is what the per-delay entry points return."""

    @settings(max_examples=25, deadline=None)
    @given(source=_sweep_sources(),
           ratios=st.lists(st.sampled_from([1.0, 0.3, 0.05]), min_size=1, max_size=3),
           fractions=st.lists(st.tuples(_delay_widths, _delay_widths, _delay_widths),
                              min_size=1, max_size=4),
           slope=st.sampled_from([None, 0.0, 0.8]))
    def test_rows_equal_per_delay_views(self, source, ratios, fractions, slope):
        delays = [DelayTriple(a / SIGMA_PM, b / SIGMA_PM, c / SIGMA_PM)
                  for a, b, c in fractions]
        cfg = OracleConfig(n_pump=33, n_prime=40, n_dprime=36,
                           pump_coupling=None if slope is None else LinearShift(slope))
        rows = factorization_error_sweep(source, delays, ratios, cfg)
        assert [(r.ratio, r.delays) for r in rows] == [(q, d) for q in ratios for d in delays]
        for row in rows:
            src = _ratio_source(source, row.ratio)
            term = interference_term_3d(src, row.delays, 0.0, cfg)
            assert row.factorized == factorized_interference_term(src, row.delays, 0.0)
            assert row.oracle == term.value
            assert row.tail_mass == term.tail_mass
            assert row.rel_error == abs(row.factorized - row.oracle) / INTERFERENCE_SCALE

    def test_triple_sum_patch_reaches_both_entry_points(self, monkeypatch):
        def broken(source, delays, cfg):
            raise RuntimeError("patched tensor sum")

        monkeypatch.setattr(oracle, "_triple_sum", broken)
        d = DelayTriple(0.0, 0.0, 0.0)
        with pytest.raises(RuntimeError, match="^patched tensor sum$"):
            interference_term_3d(gaussian_source(), d, 0.0, OracleConfig())
        with pytest.raises(RuntimeError, match="^patched tensor sum$"):
            factorization_error_sweep(gaussian_source(), [d], [1.0], OracleConfig())

    def test_carrier_phase_patch_reaches_both_entry_points(self, monkeypatch):
        # the oracle's carrier phase is the rate core's, not a rule of its own
        calls = []
        phase = oracle._carrier_phase
        monkeypatch.setattr(oracle, "_carrier_phase",
                            lambda *a: calls.append(a[2]) or phase(*a))
        d = DelayTriple(1e-13, 0.0, 0.0)
        interference_term_3d(gaussian_source(), d, 0.5, OracleConfig())
        assert calls == [0.5]
        factorization_error_sweep(gaussian_source(), [d], [1.0, 0.5], OracleConfig())
        assert calls == [0.5, 0.0]  # once for all ratios

    @pytest.mark.parametrize("tabulated", [False, True])
    def test_grids_built_once_per_ratio_and_g_prime_once_per_delay(self, monkeypatch,
                                                                   tabulated):
        pm = (_gaussian_table(0.4, SIGMA_PM, 1.5 * SIGMA_PM) if tabulated
              else Separable(Gaussian(sigma=SIGMA_PM), Lorentzian(gamma=1.5 * SIGMA_PM)))
        source = SourceModel.cpdc(Gaussian(sigma=1e12), pm, CENTRALS)
        evaluated, joint = [], []
        for cls in (Gaussian, Lorentzian, Tabulated2D):
            monkeypatch.setattr(cls, "evaluate", lambda self, *a, _f=cls.evaluate:
                                evaluated.append(self) or _f(self, *a))
        transform = coherence._tabulated2d_transform
        monkeypatch.setattr(coherence, "_tabulated2d_transform",
                            lambda *a: joint.append(a) or transform(*a))
        delays = [DelayTriple(f / 1e12, f / SIGMA_PM, -f / SIGMA_PM) for f in (0.0, 0.4, 0.9)]
        cfg = OracleConfig(n_pump=33, n_prime=33, n_dprime=33, pump_coupling=LinearShift(0.5))
        rows = factorization_error_sweep(source, delays, [1.0, 0.1], cfg)
        assert len(rows) == 6
        # g' once per delay: 3 pairs in all, whatever the calls
        assert sum(np.broadcast(*a[1:]).size for a in joint) == (3 if tabulated else 0)
        # per ratio, the one grid evaluates each density once: the shared
        # phase-matching factors once per ratio, each ratio's pump once
        counts = Counter(map(id, evaluated))
        factors = [] if tabulated else [pm.d1, pm.d2]
        assert [counts.pop(id(d)) for d in factors] == [2] * len(factors)
        assert sorted(counts.values()) == [1, 1]


def test_sweep_builds_no_term_and_sums_delay_columns(monkeypatch):
    # the sweep once built an OracleTerm per row and summed a list of triples
    built, columns = [], []
    term = oracle.OracleTerm
    monkeypatch.setattr(oracle, "OracleTerm", lambda *a: built.append(a) or term(*a))
    core = oracle._triple_sum
    monkeypatch.setattr(oracle, "_triple_sum", lambda source, delays, cfg: columns.append(
        [(type(c), np.shape(c)) for c in delays]) or core(source, delays, cfg))
    delays = [DelayTriple(0.3e-12 * k, 0.2 / SIGMA_PM, -0.1 * k / SIGMA_PM) for k in range(3)]
    rows = factorization_error_sweep(gaussian_source(), delays, [1.0, 0.3],
                                     OracleConfig(n_pump=33, n_prime=33, n_dprime=33))
    assert len(rows) == 6
    assert built == []
    assert columns == [[(np.ndarray, (3,))] * 3] * 2  # one grid per ratio


@pytest.mark.parametrize("sizes", [(129, 129, 129), (33, 64, 40), (32, 32, 32)])
def test_term_sums_the_fine_then_the_coarse_grid(monkeypatch, sizes):
    # the coarse level is this view's alone: max(32, n // 2 + 1) per axis
    grids = []
    core = oracle._triple_sum
    monkeypatch.setattr(oracle, "_triple_sum", lambda source, delays, cfg: grids.append(
        (cfg.n_pump, cfg.n_prime, cfg.n_dprime)) or core(source, delays, cfg))
    term = interference_term_3d(gaussian_source(), DelayTriple(1e-13, 0.0, 0.0), 0.0,
                                OracleConfig(*sizes))
    assert grids == [sizes, tuple(max(32, n // 2 + 1) for n in sizes)]
    if sizes == (32, 32, 32):  # no axis coarsens, so neither does the term
        assert term.coarse_value == term.value and not term.coarse_grid_warning


_finite = st.floats(allow_nan=False, allow_infinity=False)  # signed zeros, every exponent


@settings(max_examples=500, deadline=None)
@given(phase=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300)),
       fine=st.builds(complex, _finite, _finite), coarse=st.builds(complex, _finite, _finite))
def test_vectorized_carrier_rotation_equals_complex_rotation(phase, fine, coarse):
    # the terms rotate the sums as columns; the per-row form they replace was
    # 2 Re(complex(cos, -sin) * z) in Python floats, and must agree bit for bit
    def bits(x):
        return np.float64(x).view(np.int64)

    column = np.array([phase])
    assert bits(np.cos(column)[0]) == bits(math.cos(phase))
    assert bits(np.sin(column)[0]) == bits(math.sin(phase))
    sums = iter([np.array([fine]), np.array([fine]), np.array([coarse])])
    with pytest.MonkeyPatch.context() as m, np.errstate(over="ignore"):
        m.setattr(oracle, "_triple_sum", lambda *a: next(sums))
        value, imag_residual = oracle._interference_terms(
            gaussian_source(), None, column, OracleConfig())
        # the term's coarse value is its second call of the same rotation
        m.setattr(oracle, "_carrier_phase", lambda *a: column)
        term = interference_term_3d(gaussian_source(), DelayTriple(0.0, 0.0, 0.0), 0.0,
                                    OracleConfig())
    phasor = complex(math.cos(phase), -math.sin(phase))
    assert bits(value[0]) == bits(term.value) == bits(2.0 * (phasor * fine).real)
    assert bits(term.coarse_value) == bits(2.0 * (phasor * coarse).real)
    assert bits(imag_residual[0]) == bits(abs(fine.imag))


def test_overflowing_carrier_phase_rejected_before_any_sum(monkeypatch):
    # before the check every sum ran, and the carrier phase overflowed to inf
    calls = []
    for name in ("_triple_sum", "transforms", "joint_transforms"):
        core = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda *a, _f=core, _n=name: calls.append(_n) or _f(*a))
    for delay in (1e300, 10 ** 300):  # an int beyond int64 is its float
        delays = [DelayTriple(0.0, 0.0, 0.0), DelayTriple(delay, 0, 0)]
        with pytest.raises(CarrierPhaseOverflowError,
                           match="^the carrier phase overflows at delta_tau = 1e\\+300, "):
            factorization_error_sweep(gaussian_source(), delays, [1.0], OracleConfig())
    assert calls == []


def test_interference_term_3d_rejects_overflowing_carrier_phase(monkeypatch):
    # before the check _triple_sum warned on the overflowing phase and the
    # carrier rotation then died with "math domain error"; an int beyond int64
    # died in numpy's isfinite on an object column
    calls = []
    core = oracle._triple_sum
    monkeypatch.setattr(oracle, "_triple_sum", lambda *a: calls.append(a) or core(*a))
    for delay in (1e300, 10 ** 300):
        src, d = gaussian_source(), DelayTriple(delay, 0, 0)
        with pytest.raises(CarrierPhaseOverflowError) as direct:
            interference_term_3d(src, d, 0.0, OracleConfig())
        assert calls == []
        with pytest.raises(CarrierPhaseOverflowError) as engine:
            factorized_interference_term(src, d, 0.0)
        assert str(direct.value) == str(engine.value) == (
            "the carrier phase overflows at delta_tau = 1e+300, delta_tau_prime = 0.0, "
            "delta_tau_dprime = 0.0 s, delta_phi = 0.0 rad")


@pytest.mark.parametrize("big", [2 ** 63, -(10 ** 20)], ids=["2**63", "-10**20"])
def test_int_beyond_int64_gives_its_floats_terms(big):
    cfg = OracleConfig(n_pump=33, n_prime=33, n_dprime=33, pump_coupling=LinearShift(0.5))
    cells = [(big, 0, 0), (0, big, 0), (0, 0, big)]
    ints, floats = [DelayTriple(*c) for c in cells], [DelayTriple(*map(float, c)) for c in cells]
    for i, f in zip(ints, floats):
        assert (repr(interference_term_3d(gaussian_source(), i, 0, cfg))
                == repr(interference_term_3d(gaussian_source(), f, 0.0, cfg)))
    rows = factorization_error_sweep(gaussian_source(), ints, [1.0, 0.3], cfg)
    assert repr(rows) == repr(factorization_error_sweep(gaussian_source(), floats,
                                                        [1.0, 0.3], cfg))


def test_int_too_large_for_a_float_named():
    # it once ended in a bare OverflowError
    with pytest.raises(ValueError, match="^delta_tau_dprime is too large for a float$"):
        interference_term_3d(gaussian_source(), DelayTriple(0, 0, 10 ** 400), 0.0,
                             OracleConfig())
    with pytest.raises(ValueError, match="^delta_tau is too large for a float$"):
        factorization_error_sweep(gaussian_source(), [DelayTriple(-(10 ** 400), 0, 0)],
                                  [1.0], OracleConfig())


@pytest.mark.parametrize("cfg, message", [
    (OracleConfig(n_pump=32, n_prime=32, n_dprime=32, pump_coupling=LinearShift(1e300)),
     "coupling slope = 1e+300 overflows an oracle axis: [-inf, inf]"),
    (OracleConfig(n_pump=32, n_prime=32, n_dprime=32, support_multiplier=1e300),
     "support_multiplier = 1e+300 overflows an oracle axis: [-inf, inf]"),
])
def test_overflowing_axis_named_without_a_warning(cfg, message):
    # before the check np.linspace ran over an infinite end, warned, and the
    # oracle column read nan
    source, d = gaussian_source(5e11), DelayTriple(0.0, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            interference_term_3d(source, d, 0.0, cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            factorization_error_sweep(source, [d], [1.0], cfg)


def test_overflowing_pump_rescale_named():
    # a ratio's pump width factor overflows on a 1e-300 rad/s pump
    with pytest.raises(ValueError, match="^factor must be finite and positive, got inf$"):
        factorization_error_sweep(gaussian_source(1e-300), [DelayTriple(0.0, 0.0, 0.0)],
                                  [1.0], OracleConfig())


class TestTruncation:
    """The grid's window misses the mass of an infinite-support shape beyond
    it; at zero delay the term is 2 * (1 - tail_mass)."""

    @pytest.mark.parametrize("pump, pm, tail", [
        (Gaussian(sigma=1e12), Separable(Gaussian(sigma=2e12), Lorentzian(gamma=2e12)), 0.0792),
        (SincSquared(width=1e12), Separable(Gaussian(sigma=2e12), Gaussian(sigma=2e12)), 0.0394),
    ])
    def test_heavy_tail_is_flagged(self, pump, pm, tail):
        t = interference_term_3d(SourceModel.cpdc(pump, pm, CENTRALS),
                                 DelayTriple(0, 0, 0), 0.0, OracleConfig())
        assert t.truncated
        assert t.tail_mass == pytest.approx(tail, abs=1e-4)
        assert abs(t.value - 2.0 * (1.0 - t.tail_mass)) <= 1e-4

    def test_gaussian_window_is_not_truncated(self):
        t = interference_term_3d(gaussian_source(), DelayTriple(0, 0, 0), 0.0, OracleConfig())
        assert not t.truncated
        assert 0.0 < t.tail_mass < 1e-14

    def test_tables_have_no_tail(self):
        src = SourceModel.cpdc(triangle_source().pump,
                               _gaussian_table(0.3, SIGMA_PM, SIGMA_PM), CENTRALS)
        rows = factorization_error_sweep(src, [DelayTriple(0, 0, 0)], [1.0, 0.2],
                                         OracleConfig(n_pump=33, n_prime=33, n_dprime=33))
        assert [(r.tail_mass, r.truncated) for r in rows] == [(0.0, False)] * 2
