"""Degree-of-coherence factors: Fourier transforms of spectral densities.

The 1D factor is ``integral of S(w) exp(-i w dt) dw`` over the pump
density; the 2D factor is the analogous double integral over the joint
phase-matching density. With unit-area densities both factors equal 1 at
zero delay and their magnitudes never exceed 1.

Two array cores compute them: :func:`transforms` over a 1D delay array
and :func:`joint_transforms` over delay pairs. The scalar entry points
(:func:`transform_1d`, :func:`gamma_pump`, :func:`gamma_prime`) are their
one-row views, so a sweep's columns equal the scalar values bit for bit.

Numerical strategy
------------------
Shapes with a known transform get a closed form, one numpy expression
over the delay array. The generic path, run delay by delay, uses a
composite Gauss-Legendre rule whose pieces break at every density knot
and never span more than a fraction of an oscillation cycle, so each
piece is polynomially smooth no matter how large the delay gets (silent
accuracy loss on oscillatory integrands is the classic failure mode this
avoids). A lower-order rule on the same pieces gives the error estimate.

* finite-support (tabulated) densities are integrated over their exact
  support with pieces breaking at the table knots;
* infinite-support shapes are integrated over a graded window (dense
  inner core, one-width outer steps, out to ``WINDOW_WIDTHS``
  characteristic widths) in centered coordinates, so large carrier
  offsets never inflate the oscillation count; the remainder beyond the
  window is added back analytically per shape (exact sine-integral
  forms, see ``SpectralDensity.oscillatory_tail``).

2D separable densities factor into two 1D transforms. 2D tabulated
densities use a tensor trapezoid sum, Richardson-extrapolated over two
grid halvings; each of the full, half and quarter sums is one matrix
product ``(W1*E1) V (W2*E2)^T`` with ``E = exp(-i outer(delays, knots))``,
over a whole grid for :func:`coherence_surface` and per pair otherwise.
An unresolved oscillation raises :class:`IntegrationError` naming the
first failing cell rather than returning a quietly wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import IntegrationError
from .spectra import (SpectralDensity, Separable, Tabulated, Tabulated2D,
                      JointSpectralDensity)

# Half-width of the quadrature window in characteristic widths. Wide
# enough that the Gaussian remainder is below double precision and the
# heavy-tail corrections' expansions converge fast.
WINDOW_WIDTHS = 64.0
_INNER_WIDTHS = 8.0  # densely sampled core of the window

# Acceptable estimated error for the 1D engine (absolute, relative to
# max(1, |value|)).
_QUAD_ACCEPT = 1e-8

# Acceptable relative inconsistency for the 2D tabulated trapezoid sum.
_TAB2D_ACCEPT = 1e-6


@dataclass(frozen=True)
class CoherenceValue:
    """Polar form of a complex coherence integral."""

    magnitude: float
    phase: float

    @classmethod
    def from_complex(cls, z: complex) -> "CoherenceValue":
        mag, phase = _polar(np.array([z]))
        return cls(float(mag[0]), float(phase[0]))

    def as_complex(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


def _polar(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and phases of a complex array, for sweep columns and, on
    one element, for :class:`CoherenceValue`, so the two agree bit for bit."""
    return np.abs(z), np.angle(z)


@dataclass(frozen=True)
class DelayTriple:
    """Collective, prime and double-prime asymmetry delays (s)."""

    delta_tau: float
    delta_tau_prime: float
    delta_tau_dprime: float

    def __post_init__(self):
        for v in (self.delta_tau, self.delta_tau_prime, self.delta_tau_dprime):
            if not math.isfinite(v):
                raise ValueError("delays must be finite")

    @classmethod
    def from_lengths(cls, delta_l, delta_l_prime, delta_l_dprime) -> "DelayTriple":
        c = SPEED_OF_LIGHT
        return cls(delta_l / c, delta_l_prime / c, delta_l_dprime / c)


_GL_HI = np.polynomial.legendre.leggauss(12)
_GL_LO = np.polynomial.legendre.leggauss(6)
_MAX_PHASE_PER_PIECE = 1.5  # radians of oscillation per quadrature piece
# Most quadrature pieces one transform may lay out: each holds ~0.7 kB while
# the rules run, so the cap bounds a transform near 180 MB. Resolvable
# delays stay far below it (the tests reach 8e4 pieces, the benchmark 400).
_MAX_PIECES = 2 ** 18


def _segmented_fourier(f, knots: np.ndarray, delay: float) -> tuple[complex, float]:
    """``integral of f(x) exp(-i x delay) dx`` over [knots[0], knots[-1]].

    Composite Gauss-Legendre with pieces that break at every knot (where
    tabulated densities kink) and never span more than a fraction of an
    oscillation cycle, so each piece is polynomially smooth. The error
    estimate compares against a lower-order rule on the same pieces.
    """
    widths = np.diff(knots)
    with np.errstate(over="ignore"):  # an overflowing count is inf, over the cap
        n_sub = np.maximum(1, np.ceil(np.abs(delay) * widths / _MAX_PHASE_PER_PIECE))
    if not n_sub.sum() <= _MAX_PIECES:  # counted as floats, before any cast
        raise IntegrationError(
            f"coherence quadrature at delay {delay!r} s needs {n_sub.sum():.3g} "
            f"pieces, more than the {_MAX_PIECES} allowed")
    n_sub = n_sub.astype(int)
    # piece j of knot interval [a, a + w) split n ways starts at a + (w*j)/n
    first = np.cumsum(n_sub) - n_sub
    j = np.arange(first[-1] + n_sub[-1]) - np.repeat(first, n_sub)
    piece_lo = np.repeat(knots[:-1], n_sub) + (
        np.repeat(widths, n_sub) * j / np.repeat(n_sub, n_sub))
    piece_w = np.repeat(widths / n_sub, n_sub)

    def rule(nodes_weights):
        x_ref, w_ref = nodes_weights
        x = piece_lo[:, None] + (0.5 * piece_w)[:, None] * (x_ref[None, :] + 1.0)
        w = (0.5 * piece_w)[:, None] * w_ref[None, :]
        vals = np.asarray(f(x)) * np.exp(-1j * x * delay)
        return complex(np.sum(w * vals))

    z_hi = rule(_GL_HI)
    z_lo = rule(_GL_LO)
    return z_hi, abs(z_hi - z_lo)


def _window_knots(width: float) -> np.ndarray:
    """Graded window: quarter-width steps in the core (peaked shapes),
    one-width steps outside (densities may keep oscillating on the width
    scale arbitrarily far out, so the outer step must not grow)."""
    inner = np.linspace(-_INNER_WIDTHS, _INNER_WIDTHS, 65)
    outer = np.arange(_INNER_WIDTHS + 1.0, WINDOW_WIDTHS + 0.5, 1.0)
    return np.concatenate([-outer[::-1], inner, outer]) * width


def _transform_quadrature(density: SpectralDensity, delay: float) -> complex:
    """Generic Fourier integral of a 1D density at the given delay."""
    lo, hi = density.support()
    if math.isinf(lo) or math.isinf(hi):
        # centered coordinates keep the oscillation count proportional to
        # delay * width rather than delay * carrier offset
        center = density.center
        knots = _window_knots(density.characteristic_width)
        z, err = _segmented_fourier(lambda u: density.evaluate(center + u),
                                    knots, delay)
        z += density.oscillatory_tail(float(knots[-1]), delay)
        if center != 0.0:
            z *= complex(math.cos(center * delay), -math.sin(center * delay))
    else:
        knots = density.grid if isinstance(density, Tabulated) \
            else np.linspace(lo, hi, 129)
        z, err = _segmented_fourier(density.evaluate, knots, delay)
    if err > _QUAD_ACCEPT * max(1.0, abs(z)):
        raise IntegrationError(
            f"coherence quadrature did not converge (estimated error {err:.3e})",
            value=z, error_estimate=err)
    return z


def _each(evaluate, *columns: np.ndarray) -> np.ndarray:
    """``evaluate`` at each row of the columns, in order; the first failing
    row's :class:`IntegrationError` gets the row's position as ``index``."""
    rows = list(zip(*(np.asarray(c, dtype=float).tolist() for c in columns)))
    out = np.empty(len(rows), dtype=complex)
    for k, row in enumerate(rows):
        try:
            out[k] = evaluate(*row)
        except IntegrationError as e:
            e.index = k
            raise
    return out


def transforms(density: SpectralDensity, delays, method: str = "auto") -> np.ndarray:
    """Complex Fourier transforms of a density at each of the 1D ``delays`` (s).

    ``method``: "auto" uses the closed form when available, "closed_form"
    demands one, "quadrature" forces the generic numerical path, which
    raises :class:`IntegrationError` at the first delay it cannot resolve.
    """
    if not density.is_normalized:
        raise ValueError("density must be normalized (call normalize() first)")
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    delays = np.asarray(delays, dtype=float)
    if method != "quadrature":
        z = density.analytic_transform(delays)
        if z is not None:
            return z
        if method == "closed_form":
            raise ValueError(f"{type(density).__name__} has no closed-form transform")
    return _each(lambda delay: _transform_quadrature(density, delay), delays)


def transform_1d(density: SpectralDensity, delay: float, method: str = "auto") -> complex:
    """Complex Fourier transform of a density at one ``delay`` (s): the
    one-row view of :func:`transforms`."""
    return complex(transforms(density, [delay], method)[0])


def gamma_pump(pump: SpectralDensity, delta_tau: float,
               method: str = "auto") -> CoherenceValue:
    """Pump coherence factor at collective delay ``delta_tau`` (s)."""
    return CoherenceValue.from_complex(transform_1d(pump, delta_tau, method))


def _tabulated2d_transform(pm: Tabulated2D, taus_prime, taus_dprime) -> np.ndarray:
    """Tensor trapezoid sums over a delay grid, Richardson-extrapolated over
    grid halving; element [i, j] is the transform at
    (taus_prime[i], taus_dprime[j]).

    Two successive halvings give two extrapolants; their spread is the
    error estimate (exact-order reasoning assumes near-uniform grids, on
    arbitrary grids it stays a serviceable consistency check). The first
    failing cell in row-major order is reported.
    """
    if not pm.is_normalized:
        raise ValueError("density must be normalized (call normalize() first)")
    g1, g2, v = pm.grid1, pm.grid2, pm.values
    e1 = np.exp(-1j * np.outer(taus_prime, g1))
    e2 = np.exp(-1j * np.outer(taus_dprime, g2))

    def trap(idx1, idx2):
        a = _trapezoid_weights(g1[idx1]) * e1[:, idx1]
        b = _trapezoid_weights(g2[idx2]) * e2[:, idx2]
        return a @ v[np.ix_(idx1, idx2)] @ b.T

    n1, n2 = g1.size, g2.size
    i1_full, i2_full = np.arange(n1), np.arange(n2)
    i1_half, i2_half = _half_indices(n1), _half_indices(n2)
    full = trap(i1_full, i2_full)
    half = trap(i1_half, i2_half)
    quarter = trap(i1_half[_half_indices(i1_half.size)],
                   i2_half[_half_indices(i2_half.size)])
    extrap = full + (full - half) / 3.0
    extrap_coarse = half + (half - quarter) / 3.0
    err = np.abs(extrap - extrap_coarse)
    bad = np.argwhere(err > _TAB2D_ACCEPT * np.maximum(1.0, np.abs(extrap)))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise IntegrationError(
            f"2D tabulated transform inconsistent under grid halving at cell "
            f"{(i, j)} (estimated error {err[i, j]:.3e}); the table is too "
            f"coarse for delays ({taus_prime[i]:.3e}, {taus_dprime[j]:.3e})",
            value=complex(extrap[i, j]), error_estimate=float(err[i, j]))
    return extrap


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros(grid.size)
    d = np.diff(grid)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


def _half_indices(n: int) -> np.ndarray:
    idx = np.arange(0, n, 2)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def joint_transforms(pm: JointSpectralDensity, taus_prime, taus_dprime,
                     method: str = "auto") -> np.ndarray:
    """Complex phase-matching transforms at each delay pair
    ``(taus_prime[k], taus_dprime[k])`` (s); the first failing pair raises
    :class:`IntegrationError` with its position as ``index``.

    Separable densities factor exactly into two 1D transforms; a
    ``Tabulated2D`` table takes one tensor sum per pair.
    """
    if isinstance(pm, Separable):
        try:
            z1 = transforms(pm.d1, taus_prime, method)
        except IntegrationError as e:  # unless an earlier pair fails in d2
            transforms(pm.d2, taus_dprime[:e.index], method)
            raise
        return z1 * transforms(pm.d2, taus_dprime, method)
    if isinstance(pm, Tabulated2D):
        # one sum per pair, not a grid product: BLAS may round row k of a
        # product differently from the same row computed alone
        return _each(lambda u, v: _tabulated2d_transform(pm, [u], [v])[0, 0],
                     taus_prime, taus_dprime)
    raise TypeError(f"unsupported joint density type {type(pm).__name__}")


def gamma_prime(pm: JointSpectralDensity, delta_tau_prime: float,
                delta_tau_dprime: float, method: str = "auto") -> CoherenceValue:
    """Phase-matching coherence factor at the two asymmetry delays (s): the
    one-row view of :func:`joint_transforms`."""
    return CoherenceValue.from_complex(
        joint_transforms(pm, [delta_tau_prime], [delta_tau_dprime], method)[0])


def coherence_surface(pm: JointSpectralDensity, grid_prime, grid_dprime,
                      method: str = "auto") -> list[list[CoherenceValue]]:
    """``gamma_prime`` over a delay grid; element [i][j] is the value at
    (grid_prime[i], grid_dprime[j]).

    Separable densities are evaluated once per axis and combined, so the
    cost is linear rather than quadratic in the grid sizes.
    """
    gp = np.asarray(grid_prime, dtype=float).ravel()
    gd = np.asarray(grid_dprime, dtype=float).ravel()
    if isinstance(pm, Separable):
        z = np.outer(_surface_axis(pm.d1, gp, method, "row"),
                     _surface_axis(pm.d2, gd, method, "column"))
    elif isinstance(pm, Tabulated2D):
        z = _tabulated2d_transform(pm, gp, gd)
    else:
        raise TypeError(f"unsupported joint density type {type(pm).__name__}")
    mag, phase = _polar(z)
    return [[CoherenceValue(*cell) for cell in zip(*row)]
            for row in zip(mag.tolist(), phase.tolist())]


def _surface_axis(density: SpectralDensity, delays: np.ndarray, method: str,
                  axis: str) -> np.ndarray:
    try:
        return transforms(density, delays, method)
    except IntegrationError as e:
        raise IntegrationError(
            f"surface {axis} {e.index} (all cells): {e}",
            value=e.value, error_estimate=e.error_estimate) from e
