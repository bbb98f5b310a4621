import cmath
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triphoton
from triphoton import coherence
from triphoton.coherence import (CoherenceValue, DelayTriple, coherence_surface,
                                 gamma_prime, gamma_pump, joint_transforms,
                                 transform_1d, transforms)
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               SpectralDensity, Tabulated, Tabulated2D)

ANALYTIC = [Gaussian(sigma=1.0), Lorentzian(gamma=1.0), SincSquared(width=1.0)]


def _on_path(path, quadrature):
    # the transform a density takes by its kind ("closed_form", "auto"), or
    # the quadrature engine forced on it ("quadrature")
    return quadrature if path == "quadrature" else transforms


def asym_tabulated():
    grid = np.linspace(-2.0, 3.0, 41)
    vals = np.maximum(0.0, (grid + 2.0) * (3.0 - grid)) * (1.0 + 0.3 * np.tanh(grid))
    return Tabulated(grid, vals).normalize()


def correlated_table(rho, knots=97):
    # spans +-8 sigma, so the table's edges hold no mass worth naming
    g = np.linspace(-8, 8, knots)
    x, y = g[:, None], g[None, :]
    return Tabulated2D(g, g, np.exp(-(x * x - 2 * rho * x * y + y * y)
                                    / (2 * (1 - rho * rho)))).normalize()


class TestZeroDelay:
    @pytest.mark.parametrize("density", ANALYTIC)
    @pytest.mark.parametrize("path", ["closed_form", "quadrature"])
    def test_unit_magnitude_zero_phase(self, density, path, quadrature):
        z = _on_path(path, quadrature)(density, 0.0)
        assert abs(abs(z) - 1.0) <= 1e-9
        assert abs(cmath.phase(z)) <= 1e-9

    def test_tabulated_zero_delay(self):
        g = gamma_pump(asym_tabulated(), 0.0)
        assert abs(g.magnitude - 1.0) <= 1e-9
        assert abs(g.phase) <= 1e-9


class TestDelayShapes:
    """transforms keeps the delays' shape on every path; a 0-d delay gives a
    numpy complex scalar, as the closed forms do."""

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    @pytest.mark.parametrize("path", ["auto", "quadrature"])
    @pytest.mark.parametrize("density", ANALYTIC + [asym_tabulated()],
                             ids=["gaussian", "lorentzian", "sinc_squared", "tabulated"])
    def test_shape_and_type_follow_the_delays(self, density, path, shape, quadrature):
        transform = _on_path(path, quadrature)
        delays = np.linspace(-1.5, 2.5, 6)[:math.prod(shape)].reshape(shape)
        z = transform(density, delays)
        flat = transform(density, delays.ravel())
        if shape:
            assert type(z) is np.ndarray and z.shape == shape
        else:
            assert type(z) is np.complex128
        assert z.dtype == complex
        np.testing.assert_array_equal(np.ravel(z), flat)
        assert type(transform(density, 0.5)) is np.complex128


class TestKnownTransforms:
    @pytest.mark.parametrize("path", ["closed_form", "quadrature"])
    def test_gaussian_point(self, path, quadrature):
        z = _on_path(path, quadrature)(Gaussian(sigma=1.0), 1.0)
        assert abs(z) == pytest.approx(0.6065306597126334, rel=1e-9)

    @pytest.mark.parametrize("path", ["closed_form", "quadrature"])
    def test_lorentzian_point(self, path, quadrature):
        z = _on_path(path, quadrature)(Lorentzian(gamma=1.0), 2.0)
        assert abs(z) == pytest.approx(0.1353352832366127, rel=1e-9)

    def test_sinc_squared_triangle(self, quadrature):
        d = SincSquared(width=1.0)
        for tau in (0.3, 1.0, 1.7, 2.5):
            expected = max(0.0, 1.0 - tau / 2.0)
            assert abs(quadrature(d, tau)) == pytest.approx(expected, abs=1e-9)

    def test_gaussian_decay_point_absolute(self, quadrature):
        # magnitude at 5 characteristic delays is exp(-12.5); the generic
        # quadrature must reproduce this nearly-zero value absolutely
        got = abs(quadrature(Gaussian(sigma=1.0), 5.0))
        assert abs(got - 3.726653172078671e-06) <= 1e-7
        assert got < 4e-6


class TestClosedVsQuadrature:
    @pytest.mark.parametrize("density", [
        Gaussian(sigma=1.0), Gaussian(sigma=3.7e12),
        Lorentzian(gamma=1.0), Lorentzian(gamma=8.2e11),
        Gaussian(sigma=2.0, center_offset=5.0),
        Lorentzian(gamma=1.5, center_offset=-4.0),
    ])
    def test_agreement_over_five_widths(self, density, quadrature):
        w = density.characteristic_width
        for frac in np.linspace(-5.0, 5.0, 21):
            tau = frac / w
            zc = transform_1d(density, tau)
            zq = complex(quadrature(density, tau))
            assert abs(zq - zc) <= 1e-7 * abs(zc)

    def test_sinc_squared_agreement(self, quadrature):
        d = SincSquared(width=1.0)
        for frac in np.linspace(-5.0, 5.0, 21):
            zc = transform_1d(d, frac)
            zq = complex(quadrature(d, frac))
            assert abs(zq - zc) <= 1e-7 * abs(zc) + 1e-9


class TestProperties:
    def test_hermitian_symmetry_quadrature(self):
        # bit for bit: negating a delay negates every phase and p exactly, and
        # the table's cosines, sines, sinc and j1 are even or odd bit for bit
        rng = random.Random(23)
        d = asym_tabulated()
        for _ in range(100):
            tau = rng.uniform(-5.0, 5.0)
            z_pos = transforms(d, tau)
            z_neg = transforms(d, -tau)
            assert _bits([z_neg]) == _bits([np.conj(z_pos)])

    @pytest.mark.parametrize("density", ANALYTIC)
    def test_hermitian_symmetry_closed(self, density):
        rng = random.Random(29)
        for _ in range(100):
            tau = rng.uniform(-5.0, 5.0)
            g_pos = gamma_pump(density, tau)
            g_neg = gamma_pump(density, -tau)
            assert g_neg.magnitude == pytest.approx(g_pos.magnitude, abs=1e-12)
            assert g_neg.phase == pytest.approx(-g_pos.phase, abs=1e-12)

    def test_magnitude_bounded_by_one(self, quadrature):
        rng = random.Random(31)
        densities = ANALYTIC + [asym_tabulated()]
        for _ in range(200):
            d = rng.choice(densities)
            tau = rng.uniform(-6.0, 6.0) / d.characteristic_width
            path = rng.choice(["auto", "quadrature"])
            assert abs(_on_path(path, quadrature)(d, tau)) <= 1.0 + 1e-9

    def test_unnormalized_density_rejected(self):
        raw = Tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="normalize"):
            gamma_pump(raw, 0.5)

    def test_closed_form_unavailable_for_tabulated(self):
        assert asym_tabulated().analytic_transform(np.array([0.5])) is None


def _unnormalized():
    """Densities that every transform entry point taking them must reject."""
    gauss = Gaussian(sigma=1.0)
    raw_table = Tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    g = np.linspace(-1.0, 1.0, 9)
    raw_table2d = Tabulated2D(g, g, 3.0 * np.outer(1 - np.abs(g), 1 - np.abs(g)))
    return [raw_table, Separable(gauss, raw_table), Separable(raw_table, gauss), raw_table2d]


def _forbid_sums(monkeypatch):
    # the 1D and 2D table transforms fail the test if run
    def no_sum(*args):
        raise AssertionError("a sum ran before the input was rejected")

    for name in ("_segmented_fourier", "_tabulated2d_transform"):
        monkeypatch.setattr(coherence, name, no_sum)


_ENTRY_POINTS_1D = {
    "transforms": lambda d: transforms(d, [0.0, 0.3]),
    "transforms_no_delays": lambda d: transforms(d, []),
    "gamma_pump": lambda d: gamma_pump(d, 0.3),
}
_ENTRY_POINTS_2D = {
    "joint_transforms": lambda d: joint_transforms(d, [0.0, 0.3], [0.0, 0.2]),
    "joint_transforms_no_pairs": lambda d: joint_transforms(d, [], []),
    "gamma_prime": lambda d: gamma_prime(d, 0.3, 0.2),
    "coherence_surface": lambda d: coherence_surface(d, [0.0, 0.3], [0.2]),
}


@pytest.mark.parametrize("entry, density", [
    pytest.param(entry, density, id=f"{entry}-{type(density).__name__}-{k}")
    for k, density in enumerate(_unnormalized())
    for entry in (_ENTRY_POINTS_2D if isinstance(density, (Separable, Tabulated2D))
                  else _ENTRY_POINTS_1D)])
def test_entry_points_reject_bad_input_before_any_sum(entry, density, monkeypatch):
    # one normalization check per density kind: a 2D table is rejected like
    # a 1D one, before any quadrature or tensor sum
    _forbid_sums(monkeypatch)
    entry_points = {**_ENTRY_POINTS_1D, **_ENTRY_POINTS_2D}
    with pytest.raises(ValueError, match=r"^density must be normalized \(call normalize\(\) first\)$"):
        entry_points[entry](density)


@pytest.mark.parametrize("entry", ["joint_transforms", "coherence_surface"])
def test_separable_factors_checked_before_either_quadrature(entry, monkeypatch):
    # the second factor is not normalized; the first factor's quadrature
    # over all the delays must not run before that is found
    calls = []
    fourier = coherence._segmented_fourier
    monkeypatch.setattr(coherence, "_segmented_fourier",
                        lambda *args: calls.append(args) or fourier(*args))
    pm = Separable(asym_tabulated(), Tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0]))
    taus = np.linspace(0.0, 2.0, 200)
    run = {"joint_transforms": joint_transforms, "coherence_surface": coherence_surface}
    with pytest.raises(ValueError, match="^density must be normalized"):
        run[entry](pm, taus, taus)
    assert calls == []


def _kinds_and_their_sums():
    """Each density kind, with the table sums its transform runs: none for an
    analytic shape, the exact 1D table transform for a table (or a separable
    factor that is one), the exact 2D table transform for a 2D table."""
    g = np.linspace(-4, 4, 97)
    table2d = Tabulated2D(g, g, np.outer(np.exp(-g ** 2), np.exp(-g ** 2))).normalize()
    return [(d, set()) for d in ANALYTIC] + [
        (asym_tabulated(), {"table1d"}),
        (Separable(Gaussian(sigma=1.0), Lorentzian(gamma=1.0)), set()),
        (Separable(asym_tabulated(), SincSquared(width=1.0)), {"table1d"}),
        (Separable(Gaussian(sigma=1.0), asym_tabulated()), {"table1d"}),
        (table2d, {"table2d"}),
    ]


_DISPATCH_1D = {
    "transforms": lambda d: transforms(d, [0.0, 0.3]),
    "transform_1d": lambda d: transform_1d(d, 0.3),
    "gamma_pump": lambda d: gamma_pump(d, 0.3),
}
_DISPATCH_2D = {
    "joint_transforms": lambda d: joint_transforms(d, [0.0, 0.3], [0.0, 0.2]),
    "gamma_prime": lambda d: gamma_prime(d, 0.3, 0.2),
    "coherence_surface": lambda d: coherence_surface(d, [0.0, 0.3], [0.2]),
}


@pytest.mark.parametrize("entry, density, sums", [
    pytest.param(entry, density, sums, id=f"{entry}-{type(density).__name__}-{k}")
    for k, (density, sums) in enumerate(_kinds_and_their_sums())
    for entry in (_DISPATCH_2D if isinstance(density, (Separable, Tabulated2D))
                  else _DISPATCH_1D)])
def test_density_kind_alone_picks_the_transform(entry, density, sums, monkeypatch):
    ran = set()
    for name, label in (("_segmented_fourier", "table1d"),
                        ("_tabulated2d_transform", "table2d")):
        engine = getattr(coherence, name)
        monkeypatch.setattr(coherence, name,
                            lambda *args, _e=engine, _l=label: ran.add(_l) or _e(*args))
    {**_DISPATCH_1D, **_DISPATCH_2D}[entry](density)
    assert ran == sums


@pytest.mark.parametrize("entry", list(_DISPATCH_1D))
@pytest.mark.parametrize("density", [
    d for d in _unnormalized() if isinstance(d, (Separable, Tabulated2D))] + [
    Separable(Gaussian(sigma=1.0), Lorentzian(gamma=1.0)),
    Tabulated2D(*[np.linspace(-1.0, 1.0, 9)] * 2, np.ones((9, 9))).normalize()],
    ids=lambda d: type(d).__name__)
def test_1d_entry_points_name_a_joint_density_kind(entry, density, monkeypatch):
    # these raised a bare AttributeError (no analytic_transform), or, for a
    # joint density not normalized, the normalization error; the kind is named
    # before that check and before any sum
    _forbid_sums(monkeypatch)
    with pytest.raises(TypeError, match=f"^unsupported 1D density type {type(density).__name__}$"):
        _DISPATCH_1D[entry](density)


class _NoTransform(SpectralDensity):
    # a unit-area Gaussian of infinite support, without a closed form or a table
    characteristic_width = 1.0

    def evaluate(self, detuning):
        return Gaussian(sigma=1.0).evaluate(detuning)


@pytest.mark.parametrize("entry, density", [
    pytest.param(entry, density, id=f"{entry}-{name}")
    for name, density in (("alone", _NoTransform()),
                          ("first_factor", Separable(_NoTransform(), asym_tabulated())),
                          ("second_factor", Separable(asym_tabulated(), _NoTransform())))
    for entry in (_DISPATCH_1D if name == "alone" else _DISPATCH_2D)])
def test_a_1d_density_without_a_transform_is_named(entry, density, monkeypatch):
    # the library ran a graded-window quadrature on such a density; with
    # none, its kind is named before any sum, also that of a separable
    # factor whose table partner would be summed first
    _forbid_sums(monkeypatch)
    with pytest.raises(TypeError, match="^unsupported 1D density type _NoTransform$"):
        {**_DISPATCH_1D, **_DISPATCH_2D}[entry](density)


# a non-finite delay in each entry point, placed where a sum over the other
# delays (a table factor's, or a surface's rows) would come first
_NONFINITE_1D = {
    "transforms": lambda d, bad: transforms(d, [0.3, bad, 0.0]),
    "transform_1d": lambda d, bad: transform_1d(d, bad),
    "gamma_pump": lambda d, bad: gamma_pump(d, bad),
}
_NONFINITE_2D = {
    "joint_transforms": lambda d, bad: joint_transforms(d, [0.0, 0.3], [0.2, bad]),
    "gamma_prime": lambda d, bad: gamma_prime(d, bad, 0.3),
    "coherence_surface": lambda d, bad: coherence_surface(d, [0.0, 0.3], [0.2, bad]),
}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("entry, density", [
    pytest.param(entry, density, id=f"{entry}-{name}")
    for name, density in (("closed_form", Gaussian(sigma=1.0)), ("table", asym_tabulated()),
                          ("separable", Separable(asym_tabulated(), Gaussian(sigma=1.0))),
                          ("tabulated2d", correlated_table(0.3)))
    for entry in (_NONFINITE_2D if isinstance(density, (Separable, Tabulated2D))
                  else _NONFINITE_1D)])
def test_nonfinite_delays_named_before_any_sum(entry, density, bad, monkeypatch):
    # a closed form returned nan+nanj or warned, a table's quadrature failed
    # on its piece count, a 2D table on its phase or returned nan+nanj
    _forbid_sums(monkeypatch)
    with pytest.raises(ValueError, match=f"^delays must be finite, got {re.escape(repr(bad))}$"):
        {**_NONFINITE_1D, **_NONFINITE_2D}[entry](density, bad)


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

    @pytest.mark.parametrize("jittered", [False, True], ids=["uniform", "jittered"])
    def test_product_tables_equal_the_1d_engines_product(self, jittered, quadrature):
        # one model for both containers: a product table transforms as the
        # product of the quadrature engine's integrals of its two 1D tables'
        # piecewise-linear interpolants, from |tau| h = 0 through the series
        # switch (p = tau h / 2 at 0.1) to 150
        rng = np.random.default_rng(5)
        if jittered:
            g1, g2 = (np.cumsum(rng.uniform(0.05, 0.15, n)) for n in (161, 241))
            g1, g2 = g1 - g1.mean(), g2 - g2.mean()
        else:
            g1, g2 = np.linspace(-8, 8, 161), np.linspace(-12, 12, 241)
        v1 = np.exp(-g1 ** 2 / 2) * (1 + 0.3 * np.tanh(g1))
        v2 = np.exp(-g2 ** 2 / (2 * 1.5 ** 2))
        table = Tabulated2D(g1, g2, np.outer(v1, v2)).normalize()
        t1, t2 = Tabulated(g1, v1).normalize(), Tabulated(g2, v2).normalize()
        tau_h = np.array([0.0, 1e-3, 0.05, 0.19, 0.2, 0.21, 0.5, 1.0, 3.0, 10.0, 30.0,
                          100.0, 150.0])
        h = 0.1  # mean spacing on both axes
        for taus_prime, taus_dprime in ((tau_h / h, -tau_h[::-1] / h),
                                        (-tau_h / h, np.full_like(tau_h, 3.0))):
            gap = joint_transforms(table, taus_prime, taus_dprime) - (
                quadrature(t1, taus_prime) * quadrature(t2, taus_dprime))
            assert np.max(np.abs(gap)) <= 1e-13

    def test_table_to_continuum_gap_is_the_interpolation_term(self):
        # a table transforms as its bilinear interpolant, so its gap to the
        # sampled Gaussian's closed form is the interpolant's leading term
        # -(t1^2 h1^2 + t2^2 h2^2) / 12 g'
        g1 = np.linspace(-8, 8, 321)
        g2 = np.linspace(-12, 12, 481)
        v1 = np.exp(-g1 ** 2 / 2)
        v2 = np.exp(-g2 ** 2 / (2 * 1.5 ** 2))
        table = Tabulated2D(g1, g2, np.outer(v1, v2)).normalize()
        h = 0.05  # both grids
        taus_prime = np.array([0.2, 0.6, 1.5, -2.0])
        taus_dprime = np.array([0.1, -0.4, 0.9, 2.0])
        continuum = np.exp(-taus_prime ** 2 / 2 - (1.5 * taus_dprime) ** 2 / 2)
        gap = joint_transforms(table, taus_prime, taus_dprime) - continuum
        leading = -(taus_prime ** 2 + taus_dprime ** 2) * h ** 2 / 12 * continuum
        assert np.all(np.abs(gap - leading) <= 2e-3 * np.abs(leading))

    def test_hat_transforms_on_a_uniform_grid(self):
        # an interior knot's hat is a triangle of half-width h, whose transform
        # is h exp(-i tau x_k) sinc^2(tau h / 2); the knots are exact doubles
        h = 0.125
        g = np.arange(-64, 65) * h
        tau_h = np.array([0.0, -0.0, 1e-3, 0.1, 0.19, 0.2, 0.21, 0.5, 1.0, 3.0, 30.0, 150.0])
        taus = np.concatenate([tau_h, -tau_h]) / h
        hats = coherence._hat_transforms(g, taus)[:, 1:-1]
        x = g[None, 1:-1]
        t = taus[:, None]
        expected = h * np.exp(-1j * t * x) * np.sinc(t * h / 2 / np.pi) ** 2
        assert np.all(np.abs(hats - expected) <= 2e-15 * h * (1 + np.abs(t * x)))

    def test_sinc_j1_against_exact_series(self):
        # the Taylor sums in rationals; j1's closed form cancels as p -> 0, so
        # the series must take the small p, where j1 is also relatively exact
        ps = np.concatenate([np.geomspace(1e-12, 2.0, 60), [0.0, 0.0999999, 0.1, 0.1000001]])
        p = np.concatenate([ps, -ps])
        s, j = coherence._sinc_j1(p)
        for k, x in enumerate(p.tolist()):
            q, exact_s, exact_j = Fraction(x), Fraction(0), Fraction(0)
            for n in range(30):
                exact_s += (-1) ** n * q ** (2 * n) / math.factorial(2 * n + 1)
                exact_j += (-1) ** n * q ** (2 * n + 1) * (2 * n + 2) / math.factorial(2 * n + 3)
            assert abs(s[k] - float(exact_s)) <= 2.3e-16
            assert abs(j[k] - float(exact_j)) <= (
                4.5e-16 * abs(float(exact_j)) if abs(x) < 0.1 else 1e-15)

    @pytest.mark.parametrize("delay", [1e150, 1e300, -1e300])
    def test_huge_delays_stay_finite_and_bounded(self, delay):
        # p * p overflows past |p| ~ 1.3e154, so the series must not see such p
        pm = correlated_table(0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = joint_transforms(pm, [delay, delay, 0.3, 0.0], [delay, 0.0, delay, -delay])
        assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= 1.0)

    @pytest.mark.parametrize("density, knot", [
        (correlated_table(0.4), -8.0),
        (Separable(Gaussian(sigma=1.0, center_offset=8.0), Gaussian(sigma=1.0)), 8.0),
        (Separable(Lorentzian(gamma=1.0, center_offset=-8.0), Gaussian(sigma=1.0)), -8.0),
        (Separable(Lorentzian(gamma=1.0), SincSquared(width=1.0, center_offset=-8.0)), -8.0),
        (Separable(asym_tabulated(), Gaussian(sigma=1.0)), 3.0)])
    def test_overflowing_phase_named(self, density, knot):
        message = f"the phase of {knot!r} rad/s overflows at delay 1.7e+308 s"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            joint_transforms(density, [0.0, 1.7e308], 1.7e308)


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
    def test_huge_delay_stays_accurate(self, quadrature):
        # hundreds of thousands of cosine cycles across the window: the
        # piece subdivision must keep the near-zero value near zero
        for density, expected in ((Gaussian(sigma=1.0), math.exp(-0.5 * 40.0 ** 2)),
                                  (Lorentzian(gamma=1.0), math.exp(-40.0))):
            z = quadrature(density, 40.0)
            assert abs(abs(z) - expected) <= 1e-9

    def test_huge_delay_tabulated(self):
        z = transform_1d(asym_tabulated(), 2e4)
        assert abs(z) <= 1e-6  # coherence long gone at such delays


class TestTableTransform:
    """A 1D table transforms as its piecewise-linear interpolant, in closed
    form, in blocks of ``_BLOCK_CELLS // intervals`` delays."""

    @pytest.mark.parametrize("cells", [100, None])
    def test_blocked_delays_equal_lone_delays_bit_for_bit(self, cells, monkeypatch):
        if cells:
            monkeypatch.setattr(coherence, "_BLOCK_CELLS", cells)
        density = _jittered_table(11, 41)
        step = coherence._BLOCK_CELLS // 40  # delays per block of 40 intervals
        assert step >= 2
        # tau a from 0 through the series switch at 0.1 to about 3
        reach = 6.0 / float(np.diff(density.grid).max())
        delays = [0.0, -0.0] + np.random.default_rng(2).uniform(-reach, reach, 3 * step).tolist()
        assert len(delays) > 3 * step  # at least three blocks, the last one short
        lone = [transforms(density, t) for t in delays]
        assert _bits(transforms(density, delays)) == _bits(lone)

    @pytest.mark.parametrize("delay", [1e150, 1e300, -1e300])
    def test_huge_delays_stay_finite_and_bounded(self, delay):
        # the quadrature engine needed more pieces than memory holds; the
        # closed form's series never sees such p = tau a
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = transforms(asym_tabulated(), [delay, 0.3, -delay, 0.0])
        assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= 1.0)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # numpy's reductions, not BLAS, sum a table's intervals: OpenBLAS
        # splits its work by thread and adds the parts in another order
        code = ("import sys, numpy as np\n"
                "from triphoton.coherence import transforms\n"
                "from triphoton.spectra import Tabulated\n"
                "g = np.linspace(-8.0, 8.0, 401) + 0.01 * np.sin(np.arange(401.0))\n"
                "t = Tabulated(g, np.exp(-g * g / 2) * (1.2 + np.tanh(g))).normalize()\n"
                "sys.stdout.write(transforms(t, np.linspace(-30.0, 30.0, 501)).tobytes().hex())")
        src = Path(triphoton.__file__).resolve().parents[1]
        outputs = set()
        for threads in ("1", "2"):  # no more than two BLAS threads
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            outputs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, text=True, check=True).stdout)
        assert len(outputs) == 1 and len(next(iter(outputs))) == 501 * 32


class TestTableTransformCost:
    @pytest.mark.parametrize("kind", ["table", "tabulated2d"])
    def test_memory_bounded_by_the_block(self, kind):
        # a 1D table's delays run in blocks of _BLOCK_CELLS delay x interval
        # cells, and a Tabulated2D sums its pairs in blocks of _BLOCK_CELLS
        # pair x knot cells, so what grows with the delay count is only each
        # delay's output and bookkeeping
        if kind == "table":
            density = _jittered_table(7, 401)
            delays = np.linspace(-1.0, 1.0, 10000) / float(np.median(np.diff(density.grid)))
            run = lambda n: transforms(density, delays[:n])  # noqa: E731
            cell_bytes = 8  # real block arrays
        else:
            pm, delays = correlated_table(0.5), np.linspace(-1.5, 1.5, 10000)
            run = lambda n: joint_transforms(pm, delays[:n], -delays[:n])  # noqa: E731
            cell_bytes = 16  # complex block arrays
        peaks = {}
        for n in (5000, 10000):
            tracemalloc.start()
            try:
                run(n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_delay = (peaks[10000] - peaks[5000]) / 5000
        assert per_delay <= 400  # bytes: each delay's z, zero and bookkeeping
        assert peaks[5000] - 5000 * per_delay <= 8 * cell_bytes * coherence._BLOCK_CELLS

    @pytest.mark.parametrize("reach, tans_per_block", [(0.09, 1), (6.0, 2)],
                             ids=["series", "closed"])
    def test_trig_is_one_tan_per_phase_array(self, reach, tans_per_block, monkeypatch):
        # the cells' phases take one tan per block; sinc and j1 take another
        # only where some cell's |p| reaches the closed form's 0.1
        density = _jittered_table(5, 41)
        step = coherence._BLOCK_CELLS // 40
        delays = np.linspace(-1.0, 1.0, 3 * step + 1) * reach / float(np.diff(density.grid).max())
        calls = {"sin": 0, "cos": 0, "tan": 0}

        def counted(name, f):
            def g(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return g

        for name in calls:
            monkeypatch.setattr(coherence.np, name, counted(name, getattr(np, name)))
        transforms(density, delays)
        assert calls == {"sin": 0, "cos": 0, "tan": 4 * tans_per_block}  # four blocks

    def test_memory_per_delay(self):
        # each delay keeps its z and its zero in arrays, not in Python tuples
        # (those took about 260 bytes a delay)
        density = _jittered_table(7, 401)
        delays = np.linspace(-1.0, 1.0, 10000) / float(np.median(np.diff(density.grid)))
        peaks = {}
        for n in (5000, 10000):
            tracemalloc.start()
            try:
                transforms(density, delays[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[10000] - peaks[5000]) / 5000 <= 128  # bytes


def _jittered_table(seed, n=61):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * 0.1
    grid -= grid[0] + 2.0
    vals = np.exp(-grid ** 2) * (1.0 + rng.uniform(0.0, 0.3, grid.size))
    return Tabulated(grid, vals).normalize()


def _bits(sums):
    return np.array(sums, dtype=complex).view(np.int64).tolist()


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
                assert abs(surf[i][j].as_complex()) <= 1 + 1e-9
                assert _polar_bits(surf[i][j]) == _polar_bits(gamma_prime(pm, tp, td))


def _polar_bits(value):
    return np.array([value.magnitude, value.phase]).view(np.int64).tolist()


class TestTabulated2DPairs:
    """A Tabulated2D sums each broadcast pair alone, in blocks of
    ``_BLOCK_CELLS // grid1.size`` pairs, so no result depends on its block."""

    def test_blocked_pairs_equal_lone_pairs_bit_for_bit(self):
        pm = correlated_table(0.5, 161)
        assert coherence._BLOCK_CELLS // pm.grid1.size == 50  # 250 pairs: five blocks
        u, v = np.random.default_rng(3).uniform(-1.5, 1.5, (2, 250))
        lone = [joint_transforms(pm, a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert _bits(joint_transforms(pm, u, v)) == _bits(lone)


class TestJointShapes:
    """joint_transforms takes the numpy broadcast of its two delay columns on
    both density kinds, transforming each axis on its own delays; columns that
    do not broadcast raise numpy's error."""

    KINDS = {"separable": Separable(Gaussian(sigma=1.0), Lorentzian(gamma=1.3)),
             "separable_table": Separable(asym_tabulated(), Gaussian(sigma=0.8)),
             "tabulated2d": correlated_table(0.3)}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("taus_prime, taus_dprime", [
        ([0.0, 0.5, 1.0], [0.2]), ([0.2], [0.0, 0.5, 1.0]), (0.5, -0.25),
        ([[0.0], [0.7]], [0.2, -0.4, 0.9])])
    def test_result_has_the_broadcast_shape(self, kind, taus_prime, taus_dprime):
        pm = self.KINDS[kind]
        z = joint_transforms(pm, taus_prime, taus_dprime)
        u, v = np.broadcast_arrays(np.asarray(taus_prime, float), np.asarray(taus_dprime, float))
        if u.shape:
            assert type(z) is np.ndarray and z.shape == u.shape
        else:
            assert type(z) is np.complex128
        assert _bits(np.ravel(z)) == _bits(joint_transforms(pm, u.ravel(), v.ravel()))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape_prime, shape_dprime", [
        ((), ()), ((4, 1), (1, 3)), ((1, 3), (4, 1)), ((2, 1, 3), (1, 4, 1))])
    def test_broadcast_equals_lone_pairs_bit_for_bit(self, kind, shape_prime,
                                                      shape_dprime):
        # each axis is transformed on its own delays; the broadcast of the
        # results gives every pair the bits it has alone
        pm = self.KINDS[kind]
        rng = np.random.default_rng(len(shape_prime))
        tp, td = rng.uniform(-1.5, 1.5, shape_prime), rng.uniform(-1.5, 1.5, shape_dprime)
        z = joint_transforms(pm, tp, td)
        u, v = np.broadcast_arrays(tp, td)
        assert np.shape(z) == u.shape
        assert _bits(np.ravel(z)) == _bits(
            [joint_transforms(pm, a, b) for a, b in zip(u.ravel().tolist(), v.ravel().tolist())])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("long_axis", [0, 1])
    def test_a_long_axis_spans_blocks_bit_for_bit(self, kind, long_axis):
        # 2 x 20,000 pairs: a table blocks along the long axis
        pm = self.KINDS[kind]
        rng = np.random.default_rng(5)
        short, long = rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 20000)
        tp, td = (long[:, None], short) if long_axis == 0 else (short[:, None], long)
        z = joint_transforms(pm, tp, td)
        u, v = np.broadcast_arrays(tp, td)
        assert _bits(np.ravel(z)) == _bits(joint_transforms(pm, u.ravel(), v.ravel()))
        picks = range(0, u.size, 397)
        assert _bits(np.ravel(z)[picks]) == _bits(
            [joint_transforms(pm, u.flat[i], v.flat[i]) for i in picks])

    @pytest.mark.parametrize("surface", [False, True], ids=["broadcast", "surface"])
    @pytest.mark.parametrize("pm", [Separable(asym_tabulated(), _jittered_table(1)),
                                    correlated_table(0.3)], ids=["separable", "tabulated2d"])
    def test_a_grid_transforms_n_plus_m_delays(self, pm, surface, monkeypatch):
        # broadcasting the delays first transformed n m of them per axis
        sent = []
        for name in ("_segmented_fourier", "_hat_transforms"):
            monkeypatch.setattr(coherence, name, lambda grid, *a, _core=getattr(
                coherence, name): sent.append(np.size(a[-1])) or _core(grid, *a))
        a, b = np.linspace(-1.5, 1.5, 7), np.linspace(-1.0, 1.0, 5)
        if surface:
            coherence_surface(pm, a, b)
        else:
            joint_transforms(pm, a[:, None], b[None, :])
        assert sorted(sent) == [5, 7]

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_grids_memory_grows_with_n_plus_m(self, kind):
        # beyond its n x m result, a grid holds each axis's transforms and one
        # block; broadcasting the delays first held several n x m arrays
        pm, extra = self.KINDS[kind], {}
        for n in (300, 600):
            a, b = np.linspace(-1.5, 1.5, n), np.linspace(-1.0, 1.0, n)
            tracemalloc.start()
            try:
                z = joint_transforms(pm, a[:, None], b[None, :])
                extra[2 * n] = tracemalloc.get_traced_memory()[1] - z.nbytes
            finally:
                tracemalloc.stop()
            del z
        assert extra[1200] - extra[600] <= 4096 * (1200 - 600)  # bytes

    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_that_do_not_broadcast_raise(self, kind):
        # before, a table zipped (3,) against (2,) into two values
        with pytest.raises(ValueError, match="^shape mismatch: "):
            joint_transforms(self.KINDS[kind], [0.0, 0.5, 1.0], [0.2, 0.4])


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

    @pytest.mark.parametrize("field", ["delta_tau", "delta_tau_prime", "delta_tau_dprime"])
    @pytest.mark.parametrize("value", [2 ** 63, -(10 ** 20), np.int64(7), np.float32(0.1),
                                       Fraction(1, 3)],
                             ids=["2**63", "-10**20", "int64", "float32", "fraction"])
    def test_delay_triple_stores_floats(self, field, value):
        # an int beyond int64 once reached numpy as an object or uint64 column
        d = DelayTriple(**{"delta_tau": 0, "delta_tau_prime": 0, "delta_tau_dprime": 0,
                           field: value})
        assert [type(v) for v in astuple(d)] == [float] * 3
        assert getattr(d, field) == float(value)

    @pytest.mark.parametrize("field", ["delta_tau", "delta_tau_prime", "delta_tau_dprime"])
    def test_delay_triple_names_an_int_too_large_for_a_float(self, field):
        # it once ended in a bare OverflowError
        with pytest.raises(ValueError, match=f"^{field} is too large for a float$"):
            DelayTriple(**{"delta_tau": 0, "delta_tau_prime": 0, "delta_tau_dprime": 0,
                           field: -(10 ** 400)})
        with pytest.raises(TypeError):  # a number's text is not a number
            DelayTriple(**{"delta_tau": 0, "delta_tau_prime": 0, "delta_tau_dprime": 0,
                           field: "1e-12"})

    def test_delay_triple_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^delta_tau must be finite, got nan$"):
            DelayTriple(math.nan, 0.0, 0.0)
        # 1e10 inverse widths of a 1e-300 rad/s pump: the product overflows
        with pytest.raises(ValueError, match="^delta_tau must be finite, got inf$"):
            DelayTriple(1e10 * (1.0 / 1e-300), 0.0, 0.0)
