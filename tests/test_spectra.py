import math

import numpy as np
import pytest

from triphoton.errors import NormalizationError
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               Tabulated, Tabulated2D, _sine_integral, joint_widths)

ALL_SHAPES = [Gaussian(sigma=1.0), Lorentzian(gamma=1.0), SincSquared(width=1.0)]


def numeric_area(density, half_span=200.0, n=2_000_001):
    """Brute-force trapezoid of the density, independent of its own methods."""
    x = np.linspace(density.center - half_span, density.center + half_span, n)
    return float(np.trapezoid(density.evaluate(x), x))


def test_gaussian_peak_value_matches_numeric_normalization():
    g = Gaussian(sigma=1.0)
    # oracle: numerically integrate the unnormalized bell and invert
    x = np.linspace(-10, 10, 400001)
    peak = 1.0 / float(np.trapezoid(np.exp(-x ** 2 / 2), x))
    assert peak == pytest.approx(0.3989422804014327, rel=1e-12)
    assert g.evaluate(0.0) == pytest.approx(peak, rel=1e-12)


@pytest.mark.parametrize("density", ALL_SHAPES)
def test_even_symmetry_is_exact(density):
    xs = np.array([0.1, 0.35, 1.7, 2.0, 5.5, 11.0])
    assert np.array_equal(density.evaluate(xs), density.evaluate(-xs))


@pytest.mark.parametrize("density", ALL_SHAPES)
def test_analytic_shapes_have_unit_area(density):
    # numeric quadrature over a wide window plus the exact tail must give 1
    x = np.linspace(density.center - 50, density.center + 50, 400001)
    inside = float(np.trapezoid(density.evaluate(x), x))
    total = inside + density.mass_outside(float(x[0]), float(x[-1]))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_gaussian_tail_mass_matches_erfc():
    tail = Gaussian(sigma=1.0).mass_outside(-6.0, 6.0)
    assert tail == pytest.approx(1.9731752900754024e-09, rel=1e-9)
    assert tail < 2e-9


def test_lorentzian_tail_mass_matches_arctan():
    tail = Lorentzian(gamma=1.0).mass_outside(-6.0, 6.0)
    assert tail == pytest.approx(1 - 2 * math.atan(6.0) / math.pi, rel=1e-12)
    assert tail == pytest.approx(0.10513691342250675, rel=1e-12)


def test_invalid_widths_rejected():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Gaussian(sigma=bad)
        with pytest.raises(ValueError):
            Lorentzian(gamma=bad)
        with pytest.raises(ValueError):
            SincSquared(width=bad)


def test_tabulated_triangle_normalize():
    # trapezoid area of [0, 2, 0] on [-1, 0, 1] is 2, so values halve
    t = Tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0]).normalize()
    assert np.allclose(t.values, [0.0, 1.0, 0.0])
    assert t.evaluate(0.0) == pytest.approx(1.0)
    assert t.evaluate(0.5) == pytest.approx(0.5)
    assert t.evaluate(2.0) == 0.0
    assert t.evaluate(-2.0) == 0.0
    assert t.is_normalized


def test_tabulated_rejects_bad_input():
    with pytest.raises(NormalizationError):
        Tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]).normalize()
    with pytest.raises(ValueError):
        Tabulated([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])  # not strictly increasing
    with pytest.raises(ValueError):
        Tabulated([-1.0, 0.0, 1.0], [0.0, -1.0, 0.0])  # negative values


def test_tabulated_center_offset_shifts_grid():
    t = Tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], center_offset=5.0)
    assert t.center == pytest.approx(5.0)
    assert t.evaluate(5.0) == pytest.approx(1.0)
    assert t.evaluate(0.0) == 0.0


@pytest.mark.parametrize("offset, message", [
    (math.inf, "grid and values must be finite"),
    (math.nan, "grid and values must be finite"),
    (1e30, "grid must be strictly increasing"),  # knots merge at this magnitude
])
def test_tabulated_checks_the_shifted_grid(offset, message):
    with pytest.raises(ValueError, match=message):
        Tabulated([-1e12, 0.0, 1e12], [0.0, 1.0, 0.0], center_offset=offset)


def test_width_scaling_preserves_area():
    for d in ALL_SHAPES:
        scaled = d.with_width_scaled(3.0)
        assert scaled.characteristic_width == pytest.approx(
            3.0 * d.characteristic_width)
        inside = numeric_area(scaled, half_span=600.0)
        assert inside + scaled.mass_outside(-600.0, 600.0) == pytest.approx(
            1.0, abs=1e-6)
    t = Tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]).with_width_scaled(2.0)
    assert t.area == pytest.approx(1.0, rel=1e-12)


def test_tabulated_width_scaling_keeps_off_carrier_peak():
    grid = np.linspace(-3e12, 3e12, 201)
    t = Tabulated(grid, np.exp(-grid ** 2 / (2 * 1e24)), center_offset=2e12).normalize()
    scaled = t.with_width_scaled(0.5)
    assert scaled.center == pytest.approx(2e12, rel=1e-12)
    assert scaled.characteristic_width == pytest.approx(
        0.5 * t.characteristic_width, rel=1e-9)
    assert scaled.area == pytest.approx(1.0, rel=1e-12)


def test_joint_widths():
    pm = Separable(Gaussian(sigma=2.0), Lorentzian(gamma=3.0))
    assert joint_widths(pm) == (2.0, 3.0)
    tab = Tabulated2D(np.linspace(-1, 3, 5), np.linspace(-6, 2, 9), np.ones((5, 9)))
    assert joint_widths(tab) == (2.0, 4.0)
    with pytest.raises(TypeError):
        joint_widths(Gaussian(sigma=1.0))


def test_tabulated2d_marginals_of_a_product_are_its_factors():
    g1, g2 = np.linspace(-1, 1, 5), np.linspace(0, 3, 7)
    v1, v2 = 1 - np.abs(g1), g2 * (3 - g2)
    m1, m2 = Tabulated2D(g1, g2, np.outer(v1, v2)).marginals()
    assert np.array_equal(m1.grid, g1) and np.array_equal(m2.grid, g2)
    assert np.allclose(m1.values, v1 * np.trapezoid(v2, g2), rtol=1e-14, atol=0)
    assert np.allclose(m2.values, v2 * np.trapezoid(v1, g1), rtol=1e-14, atol=0)


def test_separable_is_pointwise_product():
    d1, d2 = Gaussian(sigma=1.0), Lorentzian(gamma=2.0)
    pm = Separable(d1, d2)
    xs = np.array([-1.5, 0.0, 0.7])
    ys = np.array([2.0, -0.3, 0.1])
    assert np.array_equal(pm.evaluate(xs, ys),
                          np.asarray(d1.evaluate(xs)) * np.asarray(d2.evaluate(ys)))


def test_tabulated2d_normalization_and_interpolation():
    g1 = np.linspace(-2, 2, 41)
    g2 = np.linspace(-3, 3, 61)
    vals = np.exp(-g1[:, None] ** 2) * np.exp(-g2[None, :] ** 2 / 4)
    pm = Tabulated2D(g1, g2, vals).normalize()
    assert pm.is_normalized
    area = np.trapezoid(np.trapezoid(pm.values, g2, axis=1), g1)
    assert area == pytest.approx(1.0, abs=1e-12)
    # bilinear interpolation reproduces grid nodes and is zero outside
    assert pm.evaluate(g1[7], g2[11]) == pytest.approx(pm.values[7, 11], rel=1e-12)
    assert pm.evaluate(10.0, 0.0) == 0.0
    assert pm.evaluate(0.0, -10.0) == 0.0
    # midpoint of a cell sits between the corner values
    mid = pm.evaluate(0.5 * (g1[3] + g1[4]), 0.5 * (g2[5] + g2[6]))
    corners = [pm.values[3, 5], pm.values[4, 5], pm.values[3, 6], pm.values[4, 6]]
    assert min(corners) <= mid <= max(corners)


def test_tabulated2d_rejects_bad_input():
    g = np.linspace(-1, 1, 5)
    with pytest.raises(NormalizationError):
        Tabulated2D(g, g, np.zeros((5, 5))).normalize()
    with pytest.raises(ValueError):
        Tabulated2D(g, g, np.ones((5, 4)))
    with pytest.raises(ValueError):
        Tabulated2D(g, g, -np.ones((5, 5)))


# each of these passes the strictly-increasing check
@pytest.mark.parametrize("bad", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf],
                                 [-math.inf, 1.0, 2.0]])
@pytest.mark.parametrize("axis", ["grid1", "grid2"])
def test_tabulated2d_rejects_non_finite_grid(axis, bad):
    grids = {"grid1": [0.0, 1.0, 2.0], "grid2": [0.0, 1.0, 2.0], axis: bad}
    with pytest.raises(ValueError, match=f"^{axis} must be finite$"):
        Tabulated2D(grids["grid1"], grids["grid2"], np.ones((3, 3)))


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "density.txt"
    grid = np.linspace(-2, 2, 9)
    vals = np.maximum(0.0, 1 - np.abs(grid) / 2)
    np.savetxt(path, np.column_stack([grid, vals]))
    t = Tabulated.from_file(path).normalize()
    assert t.is_normalized
    assert t.evaluate(0.0) > 0


def test_tabulated_from_one_row_file(tmp_path):
    # two columns but one knot: the grid check names the fault, not the columns
    path = tmp_path / "density.txt"
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="^grid must be 1D with at least two points$"):
        Tabulated.from_file(path)


def test_tabulated_from_one_column_file(tmp_path):
    path = tmp_path / "density.txt"
    path.write_text("0\n1\n2\n")
    with pytest.raises(ValueError, match=r"density\.txt: expected two columns \(detuning, value\)$"):
        Tabulated.from_file(path)


def test_sine_integral_matches_scipy():
    sici = pytest.importorskip("scipy.special").sici  # test-only reference
    two = 2.0  # the switch from the power series to the continued fraction
    edges = [np.nextafter(two, 0.0), two, np.nextafter(two, 3.0), two + 1e-12,
             two - 1e-12, 2.1, 1.9]
    xs = np.concatenate([
        np.linspace(-50.0, 50.0, 2001),  # both branches, both signs
        np.geomspace(1e-10, 1e8, 2001),
        -np.geomspace(1e-10, 1e8, 401),
        edges, np.negative(edges),
        [1e-300, -1e-300, 5e-324, 1e15, -1e15, 1e300]])
    for x in xs.tolist():
        ref = float(sici(x)[0])
        assert abs(_sine_integral(x) - ref) <= 4e-15 * abs(ref), x
        assert _sine_integral(-x) == -_sine_integral(x)  # odd, exactly
    assert _sine_integral(1e-300) == 1e-300
    assert math.copysign(1.0, _sine_integral(-0.0)) == -1.0
    assert _sine_integral(0.0) == 0.0
    assert _sine_integral(math.inf) == float(sici(math.inf)[0]) == math.pi / 2
    assert _sine_integral(-math.inf) == -math.pi / 2
    assert math.isnan(_sine_integral(math.nan))


def test_gaussian_transform_is_zero_where_its_exponent_overflows():
    # |sigma * tau| beyond ~1.3e154 squares to inf; the limit is exactly 0
    z = Gaussian(sigma=1e12, center_offset=3e11).analytic_transform(
        np.array([2e142, -1e200, 1e296]))
    assert np.array_equal(z, np.zeros(3))
