import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import coherence
from triphoton.coherence import (CoherenceValue, DelayTriple, coherence_surface,
                                 gamma_prime, gamma_pump, transform_1d)
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.errors import IntegrationError
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               Tabulated, Tabulated2D)

ANALYTIC = [Gaussian(sigma=1.0), Lorentzian(gamma=1.0), SincSquared(width=1.0)]


def asym_tabulated():
    grid = np.linspace(-2.0, 3.0, 41)
    vals = np.maximum(0.0, (grid + 2.0) * (3.0 - grid)) * (1.0 + 0.3 * np.tanh(grid))
    return Tabulated(grid, vals).normalize()


class TestZeroDelay:
    @pytest.mark.parametrize("density", ANALYTIC)
    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_unit_magnitude_zero_phase(self, density, method):
        g = gamma_pump(density, 0.0, method=method)
        assert abs(g.magnitude - 1.0) <= 1e-9
        assert abs(g.phase) <= 1e-9

    def test_tabulated_zero_delay(self):
        g = gamma_pump(asym_tabulated(), 0.0)
        assert abs(g.magnitude - 1.0) <= 1e-9
        assert abs(g.phase) <= 1e-9


class TestKnownTransforms:
    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_gaussian_point(self, method):
        g = gamma_pump(Gaussian(sigma=1.0), 1.0, method=method)
        assert g.magnitude == pytest.approx(0.6065306597126334, rel=1e-9)

    @pytest.mark.parametrize("method", ["closed_form", "quadrature"])
    def test_lorentzian_point(self, method):
        g = gamma_pump(Lorentzian(gamma=1.0), 2.0, method=method)
        assert g.magnitude == pytest.approx(0.1353352832366127, rel=1e-9)

    def test_sinc_squared_triangle(self):
        d = SincSquared(width=1.0)
        for tau in (0.3, 1.0, 1.7, 2.5):
            expected = max(0.0, 1.0 - tau / 2.0)
            got = gamma_pump(d, tau, method="quadrature")
            assert got.magnitude == pytest.approx(expected, abs=1e-9)

    def test_gaussian_decay_point_absolute(self):
        # magnitude at 5 characteristic delays is exp(-12.5); the generic
        # quadrature must reproduce this nearly-zero value absolutely
        got = gamma_pump(Gaussian(sigma=1.0), 5.0, method="quadrature")
        assert abs(got.magnitude - 3.726653172078671e-06) <= 1e-7
        assert got.magnitude < 4e-6


class TestClosedVsQuadrature:
    @pytest.mark.parametrize("density", [
        Gaussian(sigma=1.0), Gaussian(sigma=3.7e12),
        Lorentzian(gamma=1.0), Lorentzian(gamma=8.2e11),
        Gaussian(sigma=2.0, center_offset=5.0),
        Lorentzian(gamma=1.5, center_offset=-4.0),
    ])
    def test_agreement_over_five_widths(self, density):
        w = density.characteristic_width
        for frac in np.linspace(-5.0, 5.0, 21):
            tau = frac / w
            zc = transform_1d(density, tau, method="closed_form")
            zq = transform_1d(density, tau, method="quadrature")
            assert abs(zq - zc) <= 1e-7 * abs(zc)

    def test_sinc_squared_agreement(self):
        d = SincSquared(width=1.0)
        for frac in np.linspace(-5.0, 5.0, 21):
            zc = transform_1d(d, frac, method="closed_form")
            zq = transform_1d(d, frac, method="quadrature")
            assert abs(zq - zc) <= 1e-7 * abs(zc) + 1e-9


class TestProperties:
    def test_hermitian_symmetry_quadrature(self):
        rng = random.Random(23)
        d = asym_tabulated()
        for _ in range(100):
            tau = rng.uniform(-5.0, 5.0)
            z_pos = transform_1d(d, tau)
            z_neg = transform_1d(d, -tau)
            assert z_neg == pytest.approx(z_pos.conjugate(), abs=1e-10)

    @pytest.mark.parametrize("density", ANALYTIC)
    def test_hermitian_symmetry_closed(self, density):
        rng = random.Random(29)
        for _ in range(100):
            tau = rng.uniform(-5.0, 5.0)
            g_pos = gamma_pump(density, tau)
            g_neg = gamma_pump(density, -tau)
            assert g_neg.magnitude == pytest.approx(g_pos.magnitude, abs=1e-12)
            assert g_neg.phase == pytest.approx(-g_pos.phase, abs=1e-12)

    def test_magnitude_bounded_by_one(self):
        rng = random.Random(31)
        densities = ANALYTIC + [asym_tabulated()]
        for _ in range(200):
            d = rng.choice(densities)
            tau = rng.uniform(-6.0, 6.0) / d.characteristic_width
            method = rng.choice(["auto", "quadrature"])
            assert gamma_pump(d, tau, method=method).magnitude <= 1.0 + 1e-9

    def test_unnormalized_density_rejected(self):
        raw = Tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="normalize"):
            gamma_pump(raw, 0.5)

    def test_closed_form_unavailable_for_tabulated(self):
        with pytest.raises(ValueError, match="closed-form"):
            transform_1d(asym_tabulated(), 0.5, method="closed_form")


class TestGammaPrime:
    def test_zero_delays(self):
        pm = Separable(Gaussian(sigma=1.0), Gaussian(sigma=2.0))
        g = gamma_prime(pm, 0.0, 0.0)
        assert abs(g.magnitude - 1.0) <= 1e-9

    def test_separable_gaussian_point(self):
        pm = Separable(Gaussian(sigma=1.0), Gaussian(sigma=1.0))
        g = gamma_prime(pm, 1.0, 1.0)
        assert g.magnitude == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_separable_reduces_to_1d_on_axis(self):
        d1 = Lorentzian(gamma=1.3)
        pm = Separable(d1, Gaussian(sigma=0.8))
        g = gamma_prime(pm, 0.7, 0.0)
        z1 = transform_1d(d1, 0.7)
        assert g.as_complex() == pytest.approx(z1, rel=1e-12)

    def test_separable_product_decomposition(self):
        pm = Separable(Gaussian(sigma=1.0), Lorentzian(gamma=2.0))
        z = gamma_prime(pm, 0.4, -0.9).as_complex()
        z1 = transform_1d(pm.d1, 0.4)
        z2 = transform_1d(pm.d2, -0.9)
        assert z == pytest.approx(z1 * z2, rel=1e-12)

    def test_tabulated2d_against_closed_form(self):
        # a finely tabulated Gaussian product must transform like the
        # closed-form Gaussian pair (independent cross-validation of the
        # tensor sum)
        g1 = np.linspace(-8, 8, 321)
        g2 = np.linspace(-12, 12, 481)
        v1 = np.exp(-g1 ** 2 / 2)
        v2 = np.exp(-g2 ** 2 / (2 * 1.5 ** 2))
        pm = Tabulated2D(g1, g2, np.outer(v1, v2)).normalize()
        for tau1, tau2 in [(0.0, 0.0), (0.6, -0.4), (1.5, 0.9), (-2.0, 2.0)]:
            z = gamma_prime(pm, tau1, tau2).as_complex()
            expected = math.exp(-tau1 ** 2 / 2) * math.exp(-(1.5 * tau2) ** 2 / 2)
            assert z == pytest.approx(expected, abs=2e-7)

    def test_tabulated2d_coarse_grid_raises(self):
        g = np.linspace(-1, 1, 9)
        pm = Tabulated2D(g, g, np.outer(1 - np.abs(g), 1 - np.abs(g))).normalize()
        with pytest.raises(IntegrationError):
            gamma_prime(pm, 1e4, 1e4)  # oscillation far beyond grid resolution


class TestSurface:
    def test_single_cell_origin(self):
        pm = Separable(Gaussian(sigma=1.0), Gaussian(sigma=1.0))
        surf = coherence_surface(pm, [0.0], [0.0])
        assert abs(surf[0][0].magnitude - 1.0) <= 1e-9

    def test_even_density_symmetric_surface(self):
        pm = Separable(Gaussian(sigma=1.0), SincSquared(width=2.0))
        grid = np.linspace(-2.0, 2.0, 5)
        surf = coherence_surface(pm, grid, grid)
        n = len(grid)
        for i in range(n):
            for j in range(n):
                assert surf[i][j].magnitude == pytest.approx(
                    surf[n - 1 - i][j].magnitude, abs=1e-12)
                assert surf[i][j].magnitude == pytest.approx(
                    surf[i][n - 1 - j].magnitude, abs=1e-12)

    def test_surface_matches_pointwise_calls(self):
        pm = Separable(Gaussian(sigma=1.0), Gaussian(sigma=0.5))
        gp = np.linspace(-1.5, 1.5, 7)
        gd = np.linspace(-2.0, 2.0, 5)
        surf = coherence_surface(pm, gp, gd)
        worst = 0.0
        for i, tp in enumerate(gp):
            for j, td in enumerate(gd):
                direct = gamma_prime(pm, float(tp), float(td))
                worst = max(worst, abs(surf[i][j].as_complex() - direct.as_complex()))
        assert worst < 1e-9

    def test_tabulated2d_surface_matches_pointwise(self):
        g = np.linspace(-4, 4, 97)
        pm = Tabulated2D(g, g, np.outer(np.exp(-g ** 2), np.exp(-g ** 2))).normalize()
        taus = [-0.5, 0.0, 0.5]
        surf = coherence_surface(pm, taus, taus)
        for i, tp in enumerate(taus):
            for j, td in enumerate(taus):
                direct = gamma_prime(pm, tp, td)
                assert surf[i][j].as_complex() == pytest.approx(
                    direct.as_complex(), abs=1e-12)


class TestOscillatorySafeguard:
    def test_huge_delay_stays_accurate(self):
        # hundreds of thousands of cosine cycles across the window: the
        # piece subdivision must keep the near-zero value near zero
        for density, expected in ((Gaussian(sigma=1.0), math.exp(-0.5 * 40.0 ** 2)),
                                  (Lorentzian(gamma=1.0), math.exp(-40.0))):
            z = transform_1d(density, 40.0, method="quadrature")
            assert abs(abs(z) - expected) <= 1e-9

    def test_huge_delay_tabulated(self):
        z = transform_1d(asym_tabulated(), 2e4)
        assert abs(z) <= 1e-6  # coherence long gone at such delays

    @pytest.mark.parametrize("density, delay", [
        (Tabulated([-0.5, 0.5], [1.0, 1.0]), 1e12),
        (Tabulated([-1e13, 1e13], [1.0, 1.0]), 1e300),  # the count overflows
        # mass on one knot: a rounding-noise width, one over it a huge delay
        (Tabulated([-0.499528127250639, 0.4995281272506391],
                   [0.3131155348796092, 0.0]), None),
    ])
    def test_piece_count_capped(self, density, delay):
        # the piece layout would need terabytes; it must fail by name instead
        density = density.normalize()
        delay = delay or 1.0 / density.characteristic_width
        with pytest.raises(IntegrationError, match=re.escape(f"at delay {delay!r} s ")):
            transform_1d(density, delay)


def _segmented_fourier_listcomp(f, knots, delay):
    # the piece layout built by a Python loop over the knots; the array
    # layout must reproduce its nodes, and so its sums, bit for bit
    widths = np.diff(knots)
    n_sub = np.maximum(1, np.ceil(np.abs(delay) * widths
                                  / coherence._MAX_PHASE_PER_PIECE).astype(int))
    piece_lo = np.repeat(knots[:-1], n_sub) + np.concatenate(
        [w * np.arange(k) / k for w, k in zip(widths, n_sub)])
    piece_w = np.repeat(widths / n_sub, n_sub)

    def rule(nodes_weights):
        x_ref, w_ref = nodes_weights
        x = piece_lo[:, None] + (0.5 * piece_w)[:, None] * (x_ref[None, :] + 1.0)
        w = (0.5 * piece_w)[:, None] * w_ref[None, :]
        vals = np.asarray(f(x)) * np.exp(-1j * x * delay)
        return complex(np.sum(w * vals))

    z_hi = rule(coherence._GL_HI)
    z_lo = rule(coherence._GL_LO)
    return z_hi, abs(z_hi - z_lo)


class TestSegmentedFourierLayout:
    def test_matches_per_knot_layout_bit_for_bit(self):
        rng = np.random.default_rng(5)
        grid = np.cumsum(rng.uniform(0.5, 1.5, 61)) * 0.1
        grid -= grid[0] + 2.0
        vals = np.exp(-grid ** 2) * (1.0 + rng.uniform(0.0, 0.3, grid.size))
        density = Tabulated(grid, vals).normalize()
        widths = np.diff(density.grid)
        mixed = 1.6 / float(np.median(widths))  # splits only the wider pieces
        n_sub = np.ceil(mixed * widths / coherence._MAX_PHASE_PER_PIECE)
        assert n_sub.min() == 1 and n_sub.max() > 1
        for delay in (0.0, -0.0, 0.3, mixed, -mixed, 3.7 * mixed, 2e4):
            assert (coherence._segmented_fourier(density.evaluate, density.grid, delay)
                    == _segmented_fourier_listcomp(density.evaluate, density.grid,
                                                   delay))


class TestSurfaceErrors:
    def test_cell_index_reported(self):
        g = np.linspace(-1, 1, 9)
        pm = Tabulated2D(g, g, np.outer(1 - np.abs(g), 1 - np.abs(g))).normalize()
        with pytest.raises(IntegrationError, match=r"cell \(1, 0\)"):
            coherence_surface(pm, [0.0, 1e4], [0.0])
        # (0, 1), (1, 1), (2, 0) and (2, 1) fail; row-major order comes first
        with pytest.raises(IntegrationError, match=r"cell \(0, 1\)"):
            coherence_surface(pm, [0.0, 0.0, 1e4], [0.0, 1e4])

    def test_separable_axis_reported(self, monkeypatch):
        fourier = coherence._segmented_fourier
        monkeypatch.setattr(coherence, "_segmented_fourier", lambda f, knots, delay: (
            fourier(f, knots, delay)[0], 1.0 if delay == 0.5 else 0.0))
        pm = Separable(Gaussian(sigma=1.0), Lorentzian(gamma=1.0))
        with pytest.raises(IntegrationError, match=r"^surface column 2 \(all cells\): "):
            coherence_surface(pm, [0.0, 0.25], [0.0, 0.25, 0.5], method="quadrature")
        # the rows are evaluated first
        with pytest.raises(IntegrationError, match=r"^surface row 1 \(all cells\): "):
            coherence_surface(pm, [0.0, 0.5], [0.5], method="quadrature")


def correlated_table(rho):
    # spans +-8 sigma: on a table cut where the density is still ~1e-6 the
    # Richardson step moves g'(0, 0) off 1 by ~1e-8 (the sampled continuum's
    # truncated area), a property of the trapezoid model, not of the batching
    g = np.linspace(-8, 8, 97)
    x, y = g[:, None], g[None, :]
    return Tabulated2D(g, g, np.exp(-(x * x - 2 * rho * x * y + y * y)
                                    / (2 * (1 - rho * rho)))).normalize()


_delays = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6)


class TestTabulated2DSurfaceProperties:
    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(-0.7, 0.7), taus_prime=_delays, taus_dprime=_delays)
    def test_surface_matches_pointwise_and_is_bounded(self, rho, taus_prime,
                                                      taus_dprime):
        pm = correlated_table(rho)
        taus_prime, taus_dprime = [0.0] + taus_prime, [0.0] + taus_dprime
        surf = coherence_surface(pm, taus_prime, taus_dprime)
        assert surf[0][0].as_complex() == pytest.approx(1.0, abs=1e-9)
        for i, tp in enumerate(taus_prime):
            for j, td in enumerate(taus_dprime):
                z = surf[i][j].as_complex()
                assert abs(z) <= 1 + 1e-9
                assert abs(z - gamma_prime(pm, tp, td).as_complex()) <= 1e-12


class TestValueTypes:
    def test_coherence_value_round_trip(self):
        z = 0.3 - 0.4j
        cv = CoherenceValue.from_complex(z)
        assert cv.magnitude == pytest.approx(0.5)
        assert cmath.isclose(cv.as_complex(), z, rel_tol=1e-12)

    def test_delay_triple_from_lengths(self):
        d = DelayTriple.from_lengths(SPEED_OF_LIGHT, 2 * SPEED_OF_LIGHT, 0.0)
        assert d.delta_tau == pytest.approx(1.0)
        assert d.delta_tau_prime == pytest.approx(2.0)
        assert d.delta_tau_dprime == 0.0

    def test_delay_triple_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DelayTriple(math.nan, 0.0, 0.0)
