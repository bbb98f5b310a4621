"""Degree-of-coherence factors: Fourier transforms of spectral densities.

The 1D factor is ``integral of S(w) exp(-i w dt) dw`` over the pump
density; the 2D factor is the analogous double integral over the joint
phase-matching density. With unit-area densities both factors equal 1 at
zero delay and their magnitudes never exceed 1.

Two array cores compute them: :func:`transforms` over a delay array and
:func:`joint_transforms` over the broadcast of two, each axis on its own
delays; :func:`coherence_surface` and the scalar :func:`transform_1d`,
:func:`gamma_pump` and :func:`gamma_prime` are their views, bit for bit.

Numerical strategy
------------------
Every density kind has a closed form, so no transform can fail to converge.
An analytic shape takes its own, one numpy expression. A table is its
piecewise-linear interpolant, transformed exactly as a sum of hat-function
transforms (Filon 1928; Iserles and Norsett 2005): a knot interval of
centre m and half-width a gives ``a exp(-i delay m)`` times ``sinc p`` and
``j1(p)`` terms, p = delay a, with Taylor series where p is small. A 1D
table sums its intervals per delay in bounded blocks by numpy's own
reductions, not BLAS, so a delay's bits depend neither on its block nor on
the thread count. Its cosines and sines all come from :func:`_cos_sin`, as
rational functions of one ``tan`` of the half angle: numpy vectorizes
float64 ``tan`` but calls libm's ``sin`` and ``cos`` element by element, at
about eight times the cost, and the two agree within 4.4e-16 absolute. So
a table's bits follow the ``tan`` kernel numpy dispatches for the CPU. A 2D
table is its bilinear interpolant, each axis's hat transforms at its own
delays around the value matrix; each element of the
broadcast is summed alone, so its bits depend only on its own delay pair.
2D separable densities factor into two 1D transforms. Any other 1D density
and a non-finite delay are rejected by name before any sum, and so is a
delay at which ``delay * x`` overflows on a table's knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import _real, _store_reals
from .spectra import (JointSpectralDensity, Separable, SpectralDensity, Tabulated, Tabulated2D,
                      _phases)


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
        _store_reals(self, ("delta_tau", "delta_tau_prime", "delta_tau_dprime"))

    @classmethod
    def from_lengths(cls, delta_l, delta_l_prime, delta_l_dprime) -> "DelayTriple":
        c = SPEED_OF_LIGHT
        return cls(_real("delta_l", delta_l) / c, _real("delta_l_prime", delta_l_prime) / c,
                   _real("delta_l_dprime", delta_l_dprime) / c)


# Delay x knot-interval cells in one array pass of a table transform: each of
# a block's arrays stays near 64 kB however many delays a transform takes.
_BLOCK_CELLS = 2 ** 13


def transforms(density: SpectralDensity, delays) -> np.ndarray:
    """Complex Fourier transforms of a density at each of the ``delays`` (s),
    in their shape (a 0-d delay gives a numpy complex scalar).

    After :func:`_check`, the density's kind picks its closed form: the exact
    transform of a table's piecewise-linear interpolant, else the shape's own.
    """
    delays = np.asarray(delays, dtype=float)
    _check(density, delays)
    if isinstance(density, Tabulated):
        z, _ = _segmented_fourier(density.grid, density.values, delays.ravel())
        return z.reshape(delays.shape)[()]
    return density.analytic_transform(delays)


def _check(density, *delays: np.ndarray, joint: bool = False) -> None:
    """The one input check, made before any sum: a ``TypeError`` names a density
    not of the kind asked for (``joint``, else 1D: a table or a class overriding
    ``analytic_transform``, as each ``Separable`` factor must be), then a
    ``ValueError`` the first non-finite delay, raveled, or a density not normalized."""
    factors = [density]
    if joint:
        if not isinstance(density, (Separable, Tabulated2D)):
            raise TypeError(f"unsupported joint density type {type(density).__name__}")
        factors = [density.d1, density.d2] if isinstance(density, Separable) else []
    for d in factors:
        if not (isinstance(d, Tabulated) or isinstance(d, SpectralDensity) and (
                type(d).analytic_transform is not SpectralDensity.analytic_transform)):
            raise TypeError(f"unsupported 1D density type {type(d).__name__}")
    for d in delays:
        if not np.isfinite(d).all():
            raise ValueError(f"delays must be finite, got {float(d[~np.isfinite(d)][0])!r}")
    if not density.is_normalized:
        raise ValueError("density must be normalized (call normalize() first)")


def transform_1d(density: SpectralDensity, delay: float) -> complex:
    """Complex Fourier transform of a density at one ``delay`` (s): the
    one-row view of :func:`transforms`."""
    return complex(transforms(density, [delay])[0])


def gamma_pump(pump: SpectralDensity, delta_tau: float) -> CoherenceValue:
    """Pump coherence factor at collective delay ``delta_tau`` (s)."""
    return CoherenceValue.from_complex(transform_1d(pump, delta_tau))


def _cos_sin(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``cos theta`` and ``sin theta`` elementwise, as ``(1 - t^2) / (1 + t^2)`` and
    ``2 t / (1 + t^2)`` of ``t = tan(theta / 2)``, worked in place on three
    arrays of ``theta``'s size.

    numpy runs float64 ``tan`` as a SIMD kernel but ``sin`` and ``cos`` element
    by element through libm: on an AVX-512 x86-64 CPU (numpy 2.4) this pair
    costs about 5 ns an element against libm's 39 ns, and about 20 ns with
    numpy held to AVX2. Halving is exact but for the smallest doubles, ``tan``
    is odd bit for bit and no double's exceeds 2.2e18 in magnitude (so ``t * t``
    cannot overflow): cos is even and sin odd bit for bit, ``sin(+-0.0) =
    +-0.0``. Both stayed within 2.2e-16 of libm's on 2.4 M samples up to
    |theta| = 1.7e308, under the AVX-512 and the AVX2 kernel alike; the tests
    bound the gap by 4.4e-16."""
    t = np.multiply(theta, 0.5)
    np.tan(t, out=t)
    d = t * t
    c = 1.0 - d
    d += 1.0
    c /= d
    t *= 2.0
    t /= d
    return c, t


def _sinc_j1(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sin(p) / p`` and ``j1(p) = (sin(p) / p - cos(p)) / p`` elementwise. The
    difference cancels below |p| = 0.1, so there (and only there, as ``p * p``
    may overflow far above) five terms of each Taylor series leave under 3e-18;
    above, the cosine and sine come from :func:`_cos_sin`, and a block whose
    cells all take the series makes no trigonometric call."""
    small = np.abs(p) < 0.1
    q = np.where(small, p, 0.0)
    q2 = q * q
    s, j = q2 / 362880, q2 / 3991680  # Horner, in place: few temporaries
    for a, b in ((-1 / 5040, -1 / 45360), (1 / 120, 1 / 840), (-1 / 6, -1 / 30)):
        s += a
        s *= q2
        j += b
        j *= q2
    s += 1.0
    j += 1 / 3
    j *= q
    del q, q2
    big = ~small
    r = p[big]
    if r.size:
        c, x = _cos_sin(r)
        x /= r
        s[big] = x
        x -= c
        x /= r
        j[big] = x
    return s, j


def _interval_terms(grid: np.ndarray, taus: np.ndarray):
    """``(a, phase, s, j)`` per knot interval of ``grid``, of centre m and
    half-width a, at the ``taus`` (s), which end in an axis of length 1:
    ``phase = tau m`` and ``s, j = sinc p, j1(p)``, p = tau a; a ValueError names
    a delay where ``tau * x`` overflows on a knot."""
    _phases(float(max(grid[0], grid[-1], key=abs)), taus)
    half = 0.5 * grid[1:] - 0.5 * grid[:-1]  # halved first: no overflow
    s, j = _sinc_j1(taus * half)
    return half, taus * (0.5 * grid[:-1] + 0.5 * grid[1:]), s, j


def _hat_transforms(grid: np.ndarray, taus) -> np.ndarray:
    """Transforms of the hat basis of ``grid`` at each of the ``taus`` (s), on a new
    last axis, so ``h @ values`` transforms the interpolant through ``values``: on
    a knot interval, its left and right hats give ``a exp(-i phase) (s +- i j)``
    of :func:`_interval_terms`."""
    half, phase, s, j = _interval_terms(grid, np.asarray(taus, dtype=float)[..., None])
    c = np.exp(-1j * phase)
    c *= half
    d = 1j * c * j
    c *= s
    del phase, s, j  # in place from here, so a block holds few temporaries
    h = np.zeros(c.shape[:-1] + grid.shape, dtype=complex)
    np.add(c, d, out=h[..., :-1])
    c -= d
    h[..., 1:] += c
    return h


def _segmented_fourier(grid: np.ndarray, values: np.ndarray,
                       delays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z, zeros)``: the exact transforms of the piecewise-linear interpolant
    through ``values`` on ``grid`` at the 1D float array ``delays``. A knot
    interval gives ``a exp(-i phase) (s (v_k + v_k+1) + i j (v_k - v_k+1))`` of
    :func:`_interval_terms`, contracted per interval in blocks of about
    ``_BLOCK_CELLS`` delay x interval cells and summed by numpy, not BLAS, so a
    delay's bits depend neither on its block nor on the thread count."""
    # the zeros exist only because the benchmark's perturbation test replaces
    # this (z, error) pair; they go once that test perturbs transforms instead
    v_sum, v_diff = values[:-1] + values[1:], values[:-1] - values[1:]
    z = np.empty(delays.size, dtype=complex)
    step = max(1, _BLOCK_CELLS // v_sum.size)
    for i in range(0, delays.size, step):
        half, phase, s, j = _interval_terms(grid, delays[i:i + step, None])
        s *= half * v_sum
        j *= half * v_diff
        cos, sin = _cos_sin(phase)
        del phase  # real arrays only: (cos - i sin) (s + i j), part by part
        z.real[i:i + step] = (cos * s + sin * j).sum(axis=1)
        cos *= j
        sin *= s
        z.imag[i:i + step] = (cos - sin).sum(axis=1)
        del s, j, cos, sin  # before the next block makes its own
    return z, np.zeros(delays.size)


def _tabulated2d_transform(pm: Tabulated2D, taus_prime, taus_dprime) -> np.ndarray:
    """``h1 V h2``, the exact transform of the table's bilinear interpolant at the
    broadcast delays; an element's row product and closing dot are each one item
    of a batched ``np.matmul``, so its bits depend only on its own delays."""
    h1 = _hat_transforms(pm.grid1, taus_prime)[..., None, :]
    h2 = _hat_transforms(pm.grid2, taus_dprime)[..., None, :]
    table = pm.values.astype(complex)  # matmul casts slower
    return (h1 @ table @ h2.swapaxes(-1, -2))[..., 0, 0]


def joint_transforms(pm: JointSpectralDensity, taus_prime, taus_dprime) -> np.ndarray:
    """Complex phase-matching transforms at the numpy broadcast of the delay
    arrays ``taus_prime`` and ``taus_dprime`` (s), in its shape (a 0-d pair gives
    a numpy complex scalar; shapes that do not broadcast raise numpy's
    ``ValueError``), after :func:`_check`.

    Each axis is transformed on its own delays, as given, and only the results
    are broadcast, so an n x m grid ``(a[:, None], b[None, :])`` costs n + m
    transforms per axis, not n m. Separable densities factor exactly into two
    1D transforms; a ``Tabulated2D`` sums each pair alone, in blocks of
    ``_BLOCK_CELLS // grid1.size`` along the longest broadcast axis.
    """
    tp, td = np.asarray(taus_prime, dtype=float), np.asarray(taus_dprime, dtype=float)
    shape = np.broadcast_shapes(tp.shape, td.shape)
    _check(pm, tp, td, joint=True)
    if isinstance(pm, Separable):
        return transforms(pm.d1, tp) * transforms(pm.d2, td)
    tp, td = (x.reshape((1,) * (max(len(shape), 1) - x.ndim) + x.shape) for x in (tp, td))
    z = np.empty(shape or (1,), dtype=complex)  # both on its axes: a block cuts them alike
    axis, step = int(np.argmax(z.shape)), max(1, _BLOCK_CELLS // pm.grid1.size)
    for i in range(0, z.shape[axis], step):
        cut = (slice(None),) * axis + (slice(i, i + step),)
        z[cut] = _tabulated2d_transform(pm, *(x[cut] if x.shape[axis] > 1 else x
                                              for x in (tp, td)))
    return z.reshape(shape)[()]


def gamma_prime(pm: JointSpectralDensity, delta_tau_prime: float,
                delta_tau_dprime: float) -> CoherenceValue:
    """Phase-matching coherence factor at the two asymmetry delays (s): the
    one-row view of :func:`joint_transforms`."""
    return CoherenceValue.from_complex(
        joint_transforms(pm, [delta_tau_prime], [delta_tau_dprime])[0])


def coherence_surface(pm: JointSpectralDensity, grid_prime,
                      grid_dprime) -> list[list[CoherenceValue]]:
    """``gamma_prime`` over a delay grid; element [i][j] is the value at
    (grid_prime[i], grid_dprime[j]): the polar form of the broadcast call
    ``joint_transforms(pm, grid_prime[:, None], grid_dprime[None, :])``."""
    z = joint_transforms(pm, np.ravel(grid_prime)[:, None], np.ravel(grid_dprime)[None, :])
    mag, phase = _polar(z)
    return [[CoherenceValue(*cell) for cell in zip(*row)]
            for row in zip(mag.tolist(), phase.tolist())]
