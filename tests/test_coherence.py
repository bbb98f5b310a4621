import cmath
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import coherence
from triphoton.coherence import (CoherenceValue, DelayTriple, coherence_surface,
                                 gamma_prime, gamma_pump, joint_transforms,
                                 transform_1d, transforms)
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.errors import IntegrationError
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               Tabulated, Tabulated2D)

ANALYTIC = [Gaussian(sigma=1.0), Lorentzian(gamma=1.0), SincSquared(width=1.0)]


def _on_path(path, quadrature):
    # the transform a density takes by its kind ("closed_form", "auto"), or
    # the quadrature engine forced on it ("quadrature")
    return quadrature if path == "quadrature" else transforms


def asym_tabulated():
    grid = np.linspace(-2.0, 3.0, 41)
    vals = np.maximum(0.0, (grid + 2.0) * (3.0 - grid)) * (1.0 + 0.3 * np.tanh(grid))
    return Tabulated(grid, vals).normalize()


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
    def no_sum(*args):
        raise AssertionError("a sum ran before the input was rejected")

    for name in ("_segmented_fourier", "_tabulated2d_transform"):
        monkeypatch.setattr(coherence, name, no_sum)
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
    """Each density kind, with the numerical sums its transform runs: none
    for a closed form, the quadrature engine for a table (or a separable
    factor that is one), the Richardson table sum for a 2D table."""
    g = np.linspace(-4, 4, 97)
    table2d = Tabulated2D(g, g, np.outer(np.exp(-g ** 2), np.exp(-g ** 2))).normalize()
    return [(d, set()) for d in ANALYTIC] + [
        (asym_tabulated(), {"quadrature"}),
        (Separable(Gaussian(sigma=1.0), Lorentzian(gamma=1.0)), set()),
        (Separable(asym_tabulated(), SincSquared(width=1.0)), {"quadrature"}),
        (Separable(Gaussian(sigma=1.0), asym_tabulated()), {"quadrature"}),
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
    for name, label in (("_segmented_fourier", "quadrature"),
                        ("_tabulated2d_transform", "table2d")):
        engine = getattr(coherence, name)
        monkeypatch.setattr(coherence, name,
                            lambda *args, _e=engine, _l=label: ran.add(_l) or _e(*args))
    {**_DISPATCH_1D, **_DISPATCH_2D}[entry](density)
    assert ran == sums


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

    def test_table_containers_differ_by_the_interpolation_term(self):
        # the same table in two containers: 1D tables transform as their
        # piecewise-linear interpolant, the 2D sum converges to the continuum,
        # so the gap is the interpolant's leading term -(t1^2 h1^2 + t2^2 h2^2)/12 g'
        g1 = np.linspace(-8, 8, 321)
        g2 = np.linspace(-12, 12, 481)
        v1 = np.exp(-g1 ** 2 / 2)
        v2 = np.exp(-g2 ** 2 / (2 * 1.5 ** 2))
        table = Tabulated2D(g1, g2, np.outer(v1, v2)).normalize()
        tables = Separable(Tabulated(g1, v1).normalize(), Tabulated(g2, v2).normalize())
        h = 0.05  # both grids
        taus_prime = np.array([0.2, 0.6, 1.5, -2.0])
        taus_dprime = np.array([0.1, -0.4, 0.9, 2.0])
        z = joint_transforms(table, taus_prime, taus_dprime)
        gap = joint_transforms(tables, taus_prime, taus_dprime) - z
        leading = -(taus_prime ** 2 + taus_dprime ** 2) * h ** 2 / 12 * z
        assert np.all(np.abs(gap - leading) <= 2e-3 * np.abs(leading))

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


def _per_knot_pieces(knots, delay):
    # the piece layout built by a Python loop over the knots: starts and half-widths
    widths = np.diff(knots)
    n_sub = np.maximum(1, np.ceil(np.abs(delay) * widths
                                  / coherence._MAX_PHASE_PER_PIECE).astype(int))
    piece_lo = np.repeat(knots[:-1], n_sub) + np.concatenate(
        [w * np.arange(k) / k for w, k in zip(widths, n_sub)])
    return piece_lo, 0.5 * np.repeat(widths / n_sub, n_sub)


def _segmented_fourier_listcomp(f, knots, delay):
    # the per-knot layout under the moment sums; the array layout must
    # reproduce its nodes, and so its sums, bit for bit
    piece_lo, half = _per_knot_pieces(knots, delay)
    origin = 0.5 * float(knots[0]) + 0.5 * float(knots[-1])
    [z], [err] = coherence._layout_sums(f, piece_lo, half, origin, np.array([delay]))
    return complex(z), float(err)


def _direct_gauss_legendre(f, knots, delay):
    # the same two rules on the same layout, one complex exp per node
    piece_lo, half = _per_knot_pieces(knots, delay)

    def rule(nodes_weights):
        x_ref, w_ref = nodes_weights
        x = piece_lo[:, None] + half[:, None] * (x_ref[None, :] + 1.0)
        w = half[:, None] * w_ref[None, :]
        vals = np.asarray(f(x)) * np.exp(-1j * x * delay)
        return complex(np.sum(w * vals))

    z_hi = rule(coherence._GL_HI)
    z_lo = rule(coherence._GL_LO)
    return z_hi, abs(z_hi - z_lo)


@pytest.mark.parametrize("rule, n", [("_GL_HI", 12), ("_GL_LO", 6)])
def test_gauss_legendre_literals_are_leggauss(rule, n):
    # the rules are written out so importing triphoton skips numpy.polynomial
    for got, want in zip(getattr(coherence, rule), np.polynomial.legendre.leggauss(n),
                         strict=True):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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
            z, err = coherence._segmented_fourier(density.evaluate, density.grid,
                                                  np.array([delay]))
            assert ((z[0], err[0])
                    == _segmented_fourier_listcomp(density.evaluate, density.grid,
                                                   delay))


@st.composite
def _accuracy_cases(draw):
    # unit-mass densities at three scales: jittered tables of spacing ~0.1,
    # some off centre by 3 or 10, so |x * delay| reaches ~2e3 rad (the
    # direct sum rounds each node's phase, up to ~3e-17 |x * delay|, which
    # sets that reach); tables whose spacings run over three decades, so
    # pieces of h << s sit beside the widest; the analytic shapes on their
    # graded window
    scale = draw(st.sampled_from([1e-3, 1.0, 1e12]))
    kind = draw(st.sampled_from(["table", "mixed", "gaussian", "lorentzian",
                                 "sinc_squared"]))
    if kind in ("table", "mixed"):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = draw(st.integers(2, 40))
        steps = (10.0 ** rng.uniform(-3.0, 0.0, n - 1) if kind == "mixed"
                 else rng.uniform(0.05, 0.15, n - 1))
        grid = np.concatenate([[0.0], np.cumsum(steps)])
        if kind == "table":
            grid += draw(st.sampled_from([0.0, 3.0, -10.0]))
        density = Tabulated(grid * scale, rng.uniform(0.1, 1.0, n)).normalize()
        f, knots = density.evaluate, density.grid
    else:
        shape = {"gaussian": Gaussian, "lorentzian": Lorentzian,
                 "sinc_squared": SincSquared}[kind]
        density = shape(draw(st.floats(0.5, 2.0)) * scale)
        knots = coherence._window_knots(density.characteristic_width)
        f = density.evaluate  # centred on 0
    widths = np.diff(knots)
    # +-0.0; the widest interval split k ways at the 1.5-rad piece bound,
    # where the series argument delay * s peaks at 0.75; multiples of the
    # inverse median spacing
    boundary = 1.5 * draw(st.integers(1, 8)) / float(widths.max())
    fractions = draw(st.lists(st.floats(-9.0, 9.0), max_size=4))
    delays = [0.0, -0.0, boundary, -boundary] + [
        t / float(np.median(widths)) for t in fractions]
    return f, knots, np.array(delays)


class TestMomentSumAccuracy:
    @settings(max_examples=80, deadline=None)
    @given(_accuracy_cases())
    def test_matches_direct_gauss_legendre_sum(self, case):
        f, knots, delays = case
        z, err = coherence._segmented_fourier(f, knots, delays)
        for k, delay in enumerate(delays.tolist()):
            z_direct, err_direct = _direct_gauss_legendre(f, knots, delay)
            assert z[k] == pytest.approx(z_direct, rel=0, abs=1e-13)
            assert err[k] == pytest.approx(err_direct, rel=0, abs=1e-13)


_moderate = st.floats(1e-100, 1e100).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(_moderate | st.sampled_from([0.0, -0.0]), _moderate)
def test_two_product_is_exact(a, b):
    # the common phase of a layout carries the product's rounding error
    p, e = coherence._two_product(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


class _CountingNumpy:
    # numpy as `coherence` sees it, counting the elements sent to exp, cos and sin
    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "cos", "sin"):
            return attr

        def counted(x, *args, **kwargs):
            self.elements += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


class TestQuadratureCost:
    def test_one_phase_per_piece_and_delay(self, monkeypatch):
        density = _jittered_table(7, 401)
        widths = np.diff(density.grid)
        delays = np.linspace(-8.0, 8.0, 201) / float(np.median(widths))
        counts = [np.maximum(1, np.ceil(abs(t) * widths / coherence._MAX_PHASE_PER_PIECE))
                  for t in delays]
        layouts = {c.tobytes() for c in counts}
        proxy = _CountingNumpy()
        monkeypatch.setattr(coherence, "np", proxy)
        transforms(density, delays)
        # a cos and a sin per piece and delay, plus at most 64 per layout
        assert proxy.elements <= 2 * sum(c.sum() for c in counts) + 64 * len(layouts)

    def test_memory_per_piece(self):
        density = _jittered_table(7, 401)
        widths = np.diff(density.grid)
        delay = coherence._MAX_PHASE_PER_PIECE * 65000 / float(widths.sum())
        pieces = np.maximum(1, np.ceil(delay * widths / coherence._MAX_PHASE_PER_PIECE)).sum()
        assert 65000 <= pieces <= 66000
        tracemalloc.start()
        try:
            coherence._segmented_fourier(density.evaluate, density.grid, np.array([delay]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pieces <= 840  # bytes, as the comment on _MAX_PIECES states

    @pytest.mark.parametrize("kind", ["quadrature", "tabulated2d"])
    def test_memory_bounded_by_the_block(self, kind):
        # the 1D delays share one layout of 400 pieces; their array passes run
        # in blocks of _BLOCK_CELLS delay x piece cells, and a Tabulated2D sums
        # its pairs in blocks of _BLOCK_CELLS pair x knot cells, so what grows
        # with the delay count is only each delay's output and bookkeeping
        if kind == "quadrature":
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
        assert per_delay <= 400  # bytes: a z, an error, a delay and their tuples
        assert peaks[5000] - 5000 * per_delay <= 8 * cell_bytes * coherence._BLOCK_CELLS

    def test_memory_per_delay(self):
        # the delays share one layout of 400 pieces; each keeps its position,
        # z, error and gathered delay in arrays, not in Python tuples (those
        # took about 260 bytes a delay)
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


def _quadrature_reference(density, delay):
    # the quadrature at one delay: the per-knot layout, then for infinite
    # support the oscillatory tail and the centre phase
    lo, hi = density.support()
    if not (math.isinf(lo) or math.isinf(hi)):
        return _segmented_fourier_listcomp(density.evaluate, density.grid, delay)[0]
    center = density.center
    knots = coherence._window_knots(density.characteristic_width)
    z, _ = _segmented_fourier_listcomp(lambda u: density.evaluate(center + u), knots, delay)
    z += density.oscillatory_tail(float(knots[-1]), delay)
    if center != 0.0:
        z *= complex(math.cos(center * delay), -math.sin(center * delay))
    return z


def _jittered_table(seed, n=61):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.5, 1.5, n)) * 0.1
    grid -= grid[0] + 2.0
    vals = np.exp(-grid ** 2) * (1.0 + rng.uniform(0.0, 0.3, grid.size))
    return Tabulated(grid, vals).normalize()


@st.composite
def _quadrature_cases(draw):
    scale = draw(st.sampled_from([1e-3, 1.0, 1e12]))
    kind = draw(st.sampled_from(["table", "gaussian", "lorentzian", "sinc_squared"]))
    if kind == "table":
        density = _jittered_table(draw(st.integers(0, 2 ** 32 - 1)),
                                  draw(st.integers(2, 40)))
        density = Tabulated(density.grid * scale, density.values / scale,
                            center_offset=draw(st.floats(-5.0, 5.0)) * scale)
        unit = 1.0 / float(np.median(np.diff(density.grid)))
    else:
        shape = {"gaussian": Gaussian, "lorentzian": Lorentzian,
                 "sinc_squared": SincSquared}[kind]
        density = shape(draw(st.floats(0.5, 2.0)) * scale,
                        center_offset=draw(st.sampled_from([0.0, 3.0, -40.0])) * scale)
        unit = 1.0 / density.characteristic_width
    # multiples of the inverse knot spacing or width that split the pieces
    # differently, signed, with repeats, +0.0 and -0.0
    steps = st.sampled_from([0.3, 1.0, 1.6, 3.7, 9.0]).flatmap(
        lambda m: st.floats(0.9 * m, 1.1 * m)).map(lambda t: t * unit)
    picked = draw(st.lists(st.tuples(steps, st.sampled_from([1.0, -1.0])),
                           min_size=1, max_size=5))
    delays = [t * sign for t, sign in picked]
    delays += draw(st.lists(st.sampled_from(delays), max_size=3)) + [0.0, -0.0]
    return density, np.array(draw(st.permutations(delays)))


class TestBatchedQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(_quadrature_cases())
    def test_equals_per_delay_quadrature_bit_for_bit(self, quadrature, case):
        density, delays = case
        z = quadrature(density, delays)
        assert z.tolist() == [_quadrature_reference(density, t) for t in delays.tolist()]

    @pytest.mark.parametrize("density", [_jittered_table(5), Gaussian(sigma=1.0),
                                         SincSquared(width=2.0, center_offset=7.0)])
    def test_one_evaluation_per_rule_and_layout(self, density, monkeypatch, quadrature):
        calls = []
        evaluate = type(density).evaluate
        monkeypatch.setattr(type(density), "evaluate",
                            lambda self, x: calls.append(np.shape(x)) or evaluate(self, x))
        if isinstance(density, Tabulated):
            knots, unit = density.grid, 1.0 / float(np.median(np.diff(density.grid)))
        else:
            knots = coherence._window_knots(density.characteristic_width)
            unit = 1.0 / density.characteristic_width
        delays = np.array([0.0, 3.7, -0.0, 0.01, 3.7, -3.7, 9.0, 0.3, 9.0]) * unit
        layouts = {np.maximum(1, np.ceil(abs(t) * np.diff(knots)
                                         / coherence._MAX_PHASE_PER_PIECE)).tobytes()
                   for t in delays}
        assert 3 <= len(layouts) < len(delays)
        quadrature(density, delays)
        assert len(calls) == 2 * len(layouts)


def _bits(sums):
    return np.array(sums, dtype=complex).view(np.int64).tolist()


class TestDelayBlocks:
    # 40 knot intervals; 100 delay x piece cells make blocks of two delays
    density = _jittered_table(11, 41)

    @pytest.mark.parametrize("cells", [100, None])
    def test_blocked_sums_equal_lone_sums_bit_for_bit(self, cells, monkeypatch):
        if cells:
            monkeypatch.setattr(coherence, "_BLOCK_CELLS", cells)
        knots = self.density.grid
        piece_lo, half = _per_knot_pieces(knots, 0.0)  # one piece per interval
        origin = 0.5 * float(knots[0]) + 0.5 * float(knots[-1])
        step = coherence._BLOCK_CELLS // piece_lo.size
        assert step >= 2
        rng = np.random.default_rng(2)
        reach = coherence._MAX_PHASE_PER_PIECE / float(np.diff(knots).max())
        delays = [0.0, -0.0] + rng.uniform(-reach, reach, 3 * step).tolist()
        assert len(delays) > 3 * step  # at least three blocks, the last one short
        sums = np.column_stack(coherence._layout_sums(self.density.evaluate, piece_lo,
                                                      half, origin, np.array(delays)))
        lone = [np.column_stack(coherence._layout_sums(self.density.evaluate, piece_lo, half,
                                                       origin, np.array([t])))[0]
                for t in delays]
        assert _bits(sums) == _bits(lone)

    def test_one_evaluation_per_rule_and_layout(self, monkeypatch):
        knots = self.density.grid
        unit = 1.0 / float(np.median(np.diff(knots)))
        delays = np.array([0.0, 0.3, -0.3, 3.7, 0.2, -3.7, 3.7, 0.1, 9.0, -9.0]) * unit
        z, err = coherence._segmented_fourier(self.density.evaluate, knots, delays)
        monkeypatch.setattr(coherence, "_BLOCK_CELLS", 100)
        calls = []
        f = lambda x: calls.append(x.shape) or self.density.evaluate(x)  # noqa: E731
        z_blocked, err_blocked = coherence._segmented_fourier(f, knots, delays)
        layouts = {np.maximum(1, np.ceil(abs(t) * np.diff(knots)
                                         / coherence._MAX_PHASE_PER_PIECE)).tobytes()
                   for t in delays}
        assert len(layouts) == 3 and len(calls) == 2 * len(layouts)
        assert _bits(z_blocked) == _bits(z) and err_blocked.tolist() == err.tolist()

    def test_capped_delay_in_a_later_block_evaluates_nothing(self, monkeypatch):
        monkeypatch.setattr(coherence, "_BLOCK_CELLS", 100)
        calls = []
        delays = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 1e300, 0.6, 1e300])
        with pytest.raises(IntegrationError,
                           match=re.escape("at delay 1e+300 s needs ")) as info:
            coherence._segmented_fourier(calls.append, self.density.grid, delays)
        assert info.value.index == 5 and calls == []


class _Stepped(Tabulated):
    # a jump at 0.5 on one knot interval [-1, 1]: a piece boundary only when
    # the interval is split four ways, so 2 < |delay| <= 3 converges and a
    # delay that leaves one piece (|delay| <= 0.75) does not
    def evaluate(self, x):
        return super().evaluate(x) * (1.0 + 0.5 * (np.asarray(x) > 0.5))


class TestQuadratureErrorOrder:
    density = _Stepped([-1.0, 1.0], [0.5, 0.5])
    capped = ("coherence quadrature at delay 1e+300 s needs 1.33e+300 pieces, "
              "more than the 262144 allowed")

    def _raised(self, delays):
        with pytest.raises(IntegrationError) as info:
            transforms(self.density, np.array(delays))
        return info.value

    def test_unresolved_delay_before_capped_one(self):
        z, err = _segmented_fourier_listcomp(self.density.evaluate, self.density.grid, 0.3)
        assert err > 1e-8
        transform_1d(self.density, 2.5)  # four pieces: converges
        e = self._raised([2.5, 0.3, 1e300, 0.3])
        assert str(e) == f"coherence quadrature did not converge (estimated error {err:.3e})"
        assert (e.index, e.value, e.error_estimate) == (1, z, err)

    def test_capped_delay_before_unresolved_one(self):
        e = self._raised([2.5, 1e300, 0.3])
        assert str(e) == self.capped
        assert (e.index, e.value, e.error_estimate) == (1, None, None)

    def test_capped_first_delay_evaluates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(self.density, "evaluate", calls.append)
        e = self._raised([1e300, 0.3, 2.5])
        assert str(e) == self.capped and e.index == 0 and calls == []


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
        monkeypatch.setattr(coherence, "_segmented_fourier", lambda f, knots, delays: (
            fourier(f, knots, delays)[0], np.where(delays == 0.5, 1.0, 0.0)))
        pm = Separable(asym_tabulated(), _jittered_table(3))  # tables take the engine
        with pytest.raises(IntegrationError, match=r"^surface column 2 \(all cells\): "):
            coherence_surface(pm, [0.0, 0.25], [0.0, 0.25, 0.5])
        # the rows are evaluated first
        with pytest.raises(IntegrationError, match=r"^surface row 1 \(all cells\): "):
            coherence_surface(pm, [0.0, 0.5], [0.5])


def correlated_table(rho, knots=97):
    # spans +-8 sigma: on a table cut where the density is still ~1e-6 the
    # Richardson step moves g'(0, 0) off 1 by ~1e-8 (the sampled continuum's
    # truncated area), a property of the trapezoid model, not of the batching
    g = np.linspace(-8, 8, knots)
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
                assert abs(surf[i][j].as_complex()) <= 1 + 1e-9
                assert _polar_bits(surf[i][j]) == _polar_bits(gamma_prime(pm, tp, td))


def _polar_bits(value):
    return np.array([value.magnitude, value.phase]).view(np.int64).tolist()


class TestTabulated2DPairs:
    """A Tabulated2D sums each broadcast pair alone, in blocks of
    ``_BLOCK_CELLS // grid1.size`` pairs, so no result depends on its block."""

    def test_blocked_pairs_equal_lone_pairs_bit_for_bit(self):
        pm = correlated_table(0.5, 161)
        assert coherence._BLOCK_CELLS // pm.grid1.size == 101  # 250 pairs: three blocks
        u, v = np.random.default_rng(3).uniform(-1.5, 1.5, (2, 250))
        lone = [joint_transforms(pm, a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert _bits(joint_transforms(pm, u, v)) == _bits(lone)

    def test_failing_pair_named_by_its_index_in_the_call(self, monkeypatch):
        monkeypatch.setattr(coherence, "_BLOCK_CELLS", 20)  # blocks of two pairs
        g = np.linspace(-1, 1, 9)
        pm = Tabulated2D(g, g, np.outer(1 - np.abs(g), 1 - np.abs(g))).normalize()
        taus = np.zeros(8)
        taus[[5, 7]] = 1e4
        with pytest.raises(IntegrationError, match=r"^pair 5: 2D tabulated transform ") as info:
            joint_transforms(pm, taus, 0.0)
        assert info.value.index == 5


class TestJointShapes:
    """joint_transforms takes the numpy broadcast of its two delay columns on
    both density kinds; columns that do not broadcast raise numpy's error."""

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

    def test_delay_triple_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DelayTriple(math.nan, 0.0, 0.0)
        # 1e10 inverse widths of a 1e-300 rad/s pump: the product overflows
        with pytest.raises(ValueError, match="^delays must be finite$"):
            DelayTriple(1e10 * (1.0 / 1e-300), 0.0, 0.0)
