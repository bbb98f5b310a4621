"""Property tests of the coherence factors for every density kind.

For unit-area densities the factors satisfy |g| <= 1, g(0) = 1 and the
Hermitian symmetry g(-tau) = conj g(tau), on every numerical path. The
scalar entry points are one-row views of the array cores, so they return
the cores' values bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton.coherence import (CoherenceValue, _polar, gamma_prime, gamma_pump,
                                 joint_transforms, transform_1d, transforms)
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               Tabulated, Tabulated2D)

ANALYTIC = {"gaussian": Gaussian, "lorentzian": Lorentzian,
            "sinc_squared": SincSquared}

_scale = st.integers(-3, 13).map(lambda k: 10.0 ** k)
_fractions = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4)


@st.composite
def analytic_densities(draw):
    scale = draw(_scale)
    shape = draw(st.sampled_from(list(ANALYTIC.values())))
    return shape(draw(st.floats(0.5, 2.0)) * scale,
                 center_offset=draw(st.floats(-5.0, 5.0)) * scale)


@st.composite
def tabulated_densities(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 60))
    grid = np.cumsum(rng.uniform(0.5, 1.5, n))
    values = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    values[rng.integers(n)] += 0.1  # never all zero
    scale = draw(_scale)
    return Tabulated((grid - grid.mean()) * scale, values,
                     center_offset=draw(st.floats(-5.0, 5.0)) * n * scale).normalize()


def delay_unit(density):
    """Inverse delay scale: the width, or two mean knot spacings of a table
    (whose RMS width is rounding noise when its mass sits on one knot)."""
    if isinstance(density, Tabulated):
        return 2.0 * float(np.mean(np.diff(density.grid)))
    return density.characteristic_width


def correlated_table(rho, w1, w2, knots=97):
    # smooth enough that the Richardson check accepts delays up to ~2 widths;
    # an even knot count makes the grid halvings keep an unpaired last knot
    g = np.linspace(-8, 8, knots)
    x, y = g[:, None], g[None, :]
    return Tabulated2D(g * w1, g * w2, np.exp(-(x * x - 2 * rho * x * y + y * y)
                                              / (2 * (1 - rho * rho)))).normalize()


def one_row(density, path, quadrature):
    """``transform_1d`` and ``gamma_pump`` of the density ("auto"), or the same
    one-row views of the quadrature engine forced on it ("quadrature")."""
    if path == "quadrature":
        z = lambda t: complex(quadrature(density, [t])[0])  # noqa: E731
        return z, lambda t: CoherenceValue.from_complex(z(t))
    return (lambda t: transform_1d(density, t)), (lambda t: gamma_pump(density, t))


def assert_invariants(factor, taus):
    """|g| <= 1, g(0) = 1 and g(-tau) = conj g(tau) for ``factor(tau)``."""
    zero = factor(0.0)
    assert abs(zero.magnitude - 1.0) <= 1e-9
    assert abs(zero.phase) <= 1e-9
    for tau in taus:
        pos, neg = factor(tau), factor(-tau)
        assert pos.magnitude <= 1.0 + 1e-9
        assert abs(neg.as_complex() - pos.as_complex().conjugate()) <= 1e-12


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(density=analytic_densities(), fractions=_fractions,
           path=st.sampled_from(["closed_form", "quadrature"]))
    def test_analytic(self, density, fractions, path, quadrature):
        w = delay_unit(density)
        assert_invariants(one_row(density, path, quadrature)[1], [f / w for f in fractions])

    @settings(max_examples=40, deadline=None)
    @given(density=tabulated_densities(), fractions=_fractions,
           path=st.sampled_from(["auto", "quadrature"]))
    def test_tabulated(self, density, fractions, path, quadrature):
        w = delay_unit(density)
        assert_invariants(one_row(density, path, quadrature)[1], [f / w for f in fractions])

    @settings(max_examples=30, deadline=None)
    @given(d1=st.one_of(analytic_densities(), tabulated_densities()),
           d2=st.one_of(analytic_densities(), tabulated_densities()),
           fractions=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                              min_size=1, max_size=3),
           path=st.sampled_from(["auto", "quadrature"]))
    def test_separable(self, d1, d2, fractions, path, quadrature):
        pm = Separable(d1, d2)
        w1, w2 = delay_unit(d1), delay_unit(d2)
        z1, z2 = one_row(d1, path, quadrature)[0], one_row(d2, path, quadrature)[0]
        for f1, f2 in fractions:
            if path == "quadrature":  # the product joint_transforms takes of the factors
                factor = lambda t: CoherenceValue.from_complex(  # noqa: E731
                    z1(t * f1 / w1) * z2(t * f2 / w2))
            else:
                factor = lambda t: gamma_prime(pm, t * f1 / w1, t * f2 / w2)  # noqa: E731
            assert_invariants(factor, [1.0])

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(-0.7, 0.7), scale=_scale,
           fractions=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                              min_size=1, max_size=3),
           knots=st.sampled_from([96, 97]))
    def test_tabulated2d(self, rho, scale, fractions, knots):
        pm = correlated_table(rho, scale, 1.5 * scale, knots)
        for f1, f2 in fractions:
            assert_invariants(lambda t: gamma_prime(pm, t * f1 / scale,
                                                    t * f2 / scale), [1.0])


@pytest.mark.parametrize("shape", list(ANALYTIC))
def test_closed_form_zero_delay_is_exactly_one(shape):
    g = gamma_pump(ANALYTIC[shape](2.0, center_offset=3.0), 0.0)
    assert (g.magnitude, g.phase) == (1.0, 0.0)


_delay_fractions = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0)),
                            min_size=1, max_size=24)


def assert_same_bits(value, mag, phase):
    assert (repr(value.magnitude), repr(value.phase)) == (repr(float(mag)),
                                                          repr(float(phase)))


class TestOneRowView:
    @settings(max_examples=40, deadline=None)
    @given(density=st.one_of(analytic_densities(), tabulated_densities()),
           fractions=_delay_fractions, path=st.sampled_from(["auto", "quadrature"]))
    def test_transforms(self, density, fractions, path, quadrature):
        delays = np.array(fractions) / delay_unit(density)  # keeps -0.0
        z = (quadrature if path == "quadrature" else transforms)(density, delays)
        mag, phase = _polar(z)
        value, factor = one_row(density, path, quadrature)
        for k, tau in enumerate(delays.tolist()):
            assert repr(value(tau)) == repr(complex(z[k]))
            assert_same_bits(factor(tau), mag[k], phase[k])

    @settings(max_examples=30, deadline=None)
    @given(d1=st.one_of(analytic_densities(), tabulated_densities()),
           d2=st.one_of(analytic_densities(), tabulated_densities()),
           rho=st.floats(-0.7, 0.7), tabulated2d=st.booleans(),
           fractions=st.lists(st.tuples(_delay_fractions.map(lambda f: f[0]),
                                        _delay_fractions.map(lambda f: f[0])),
                              min_size=1, max_size=12),
           knots=st.sampled_from([96, 97]))
    def test_joint_transforms(self, d1, d2, rho, tabulated2d, fractions, knots):
        if tabulated2d:  # delays within 1
            pm, w1, w2 = correlated_table(rho, 1.0, 1.5, knots), 8.0, 8.0
        else:
            pm, w1, w2 = Separable(d1, d2), delay_unit(d1), delay_unit(d2)
        taus_prime = np.array([f1 for f1, _ in fractions]) / w1
        taus_dprime = np.array([f2 for _, f2 in fractions]) / w2
        mag, phase = _polar(joint_transforms(pm, taus_prime, taus_dprime))
        for k, pair in enumerate(zip(taus_prime.tolist(), taus_dprime.tolist())):
            assert_same_bits(gamma_prime(pm, *pair), mag[k], phase[k])
