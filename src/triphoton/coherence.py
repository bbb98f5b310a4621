"""Degree-of-coherence factors: Fourier transforms of spectral densities.

The 1D factor is ``integral of S(w) exp(-i w dt) dw`` over the pump
density; the 2D factor is the analogous double integral over the joint
phase-matching density. With unit-area densities both factors equal 1 at
zero delay and their magnitudes never exceed 1.

Numerical strategy
------------------
Shapes with a known transform get a closed-form fast path. The generic
path uses a composite Gauss-Legendre rule whose pieces break at every
density knot and never span more than a fraction of an oscillation
cycle, so each piece is polynomially smooth no matter how large the
delay gets (silent accuracy loss on oscillatory integrands is the
classic failure mode this avoids). A lower-order rule on the same pieces
provides the error estimate.

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
grid halvings. A whole delay grid is evaluated at once: each of the
full, half and quarter sums is one matrix product ``(W1*E1) V (W2*E2)^T``
with the phase matrices ``E = exp(-i outer(delays, knots))``. An
unresolved oscillation on a coarse table raises :class:`IntegrationError`
naming the first failing cell rather than returning a quietly wrong
number.
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
        return cls(abs(z), math.atan2(z.imag, z.real))

    def as_complex(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


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


def _segmented_fourier(f, knots: np.ndarray, delay: float) -> tuple[complex, float]:
    """``integral of f(x) exp(-i x delay) dx`` over [knots[0], knots[-1]].

    Composite Gauss-Legendre with pieces that break at every knot (where
    tabulated densities kink) and never span more than a fraction of an
    oscillation cycle, so each piece is polynomially smooth. The error
    estimate compares against a lower-order rule on the same pieces.
    """
    widths = np.diff(knots)
    n_sub = np.maximum(1, np.ceil(np.abs(delay) * widths / _MAX_PHASE_PER_PIECE)
                       .astype(int))
    piece_lo = np.repeat(knots[:-1], n_sub) + np.concatenate(
        [w * np.arange(k) / k for w, k in zip(widths, n_sub)])
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


def transform_1d(density: SpectralDensity, delay: float, method: str = "auto") -> complex:
    """Complex Fourier transform of a density at ``delay`` (seconds).

    ``method``: "auto" uses the closed form when available, "closed_form"
    demands one, "quadrature" forces the generic numerical path.
    """
    if not density.is_normalized:
        raise ValueError("density must be normalized (call normalize() first)")
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method != "quadrature":
        z = density.analytic_transform(delay)
        if z is not None:
            return z
        if method == "closed_form":
            raise ValueError(f"{type(density).__name__} has no closed-form transform")
    return _transform_quadrature(density, delay)


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


def gamma_prime(pm: JointSpectralDensity, delta_tau_prime: float,
                delta_tau_dprime: float, method: str = "auto") -> CoherenceValue:
    """Phase-matching coherence factor at the two asymmetry delays (s).

    Separable densities factor exactly into two 1D transforms.
    """
    if isinstance(pm, Separable):
        z1 = transform_1d(pm.d1, delta_tau_prime, method)
        z2 = transform_1d(pm.d2, delta_tau_dprime, method)
        return CoherenceValue.from_complex(z1 * z2)
    if isinstance(pm, Tabulated2D):
        if not pm.is_normalized:
            raise ValueError("density must be normalized (call normalize() first)")
        return CoherenceValue.from_complex(complex(
            _tabulated2d_transform(pm, [delta_tau_prime], [delta_tau_dprime])[0, 0]))
    raise TypeError(f"unsupported joint density type {type(pm).__name__}")


def coherence_surface(pm: JointSpectralDensity, grid_prime, grid_dprime,
                      method: str = "auto") -> list[list[CoherenceValue]]:
    """Batch ``gamma_prime`` over a delay grid; element [i][j] is the value
    at (grid_prime[i], grid_dprime[j]).

    Separable densities are evaluated once per axis and combined, so the
    cost is linear rather than quadratic in the grid sizes.
    """
    gp = [float(t) for t in np.asarray(grid_prime, dtype=float).ravel()]
    gd = [float(t) for t in np.asarray(grid_dprime, dtype=float).ravel()]
    if isinstance(pm, Separable):
        z1 = []
        for i, t in enumerate(gp):
            try:
                z1.append(transform_1d(pm.d1, t, method))
            except IntegrationError as e:
                raise IntegrationError(
                    f"surface row {i} (all cells): {e}",
                    value=e.value, error_estimate=e.error_estimate) from e
        z2 = []
        for j, t in enumerate(gd):
            try:
                z2.append(transform_1d(pm.d2, t, method))
            except IntegrationError as e:
                raise IntegrationError(
                    f"surface column {j} (all cells): {e}",
                    value=e.value, error_estimate=e.error_estimate) from e
        return [[CoherenceValue.from_complex(a * b) for b in z2] for a in z1]
    if isinstance(pm, Tabulated2D):
        if not pm.is_normalized:
            raise ValueError("density must be normalized (call normalize() first)")
        return [[CoherenceValue.from_complex(z) for z in row]
                for row in _tabulated2d_transform(pm, gp, gd).tolist()]
    raise TypeError(f"unsupported joint density type {type(pm).__name__}")
