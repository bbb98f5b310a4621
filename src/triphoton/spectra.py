"""Spectral power densities for the pump and the phase-matching response.

Every density is a nonnegative function of a detuning (rad/s, measured
from the relevant carrier frequency) and is normalized to unit area over
the real line, so that the zero-delay coherence factors come out equal
to one. Analytic shapes (Gaussian, Lorentzian, SincSquared) are
normalized by construction; tabulated densities must be normalized
explicitly with :meth:`normalize`.

Evaluation is vectorized over numpy arrays and pure, so densities are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NormalizationError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SpectralDensity:
    """Base class for 1D normalized spectral power densities. The coherence
    transforms take one by its closed form, :meth:`analytic_transform`, which
    a subclass must override unless it is a :class:`Tabulated`."""

    #: Peak position (rad/s). Zero means the density sits on the carrier.
    center_offset: float = 0.0

    @property
    def center(self) -> float:
        return self.center_offset

    @property
    def characteristic_width(self) -> float:
        raise NotImplementedError

    @property
    def is_normalized(self) -> bool:
        return True

    def evaluate(self, detuning):
        """Density value at ``detuning`` (scalar or array), always >= 0."""
        raise NotImplementedError

    def normalize(self) -> "SpectralDensity":
        """Return a unit-area copy of this density."""
        return self

    def mass_outside(self, lo: float, hi: float) -> float:
        """Exact probability mass outside the interval [lo, hi]."""
        raise NotImplementedError

    def analytic_transform(self, delays: np.ndarray) -> np.ndarray | None:
        """Closed-form ``integral of f(w) exp(-i w delay) dw`` at each of the
        float array ``delays``, as a complex array; None if unknown."""
        return None

    def with_width_scaled(self, factor: float) -> "SpectralDensity":
        """Same shape with the width multiplied by ``factor`` (area preserved)."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Interval outside which the density is identically zero."""
        return (-math.inf, math.inf)


def _phases(freq: float, delays: np.ndarray) -> np.ndarray:
    """``freq * delays`` (rad/s, s); a ValueError names a delay where one overflows."""
    with np.errstate(over="ignore"):
        phase = freq * delays
    bad = np.ravel(delays)[np.isinf(phase).ravel()]
    if bad.size:
        raise ValueError(f"the phase of {freq!r} rad/s overflows at delay {float(bad[0])!r} s")
    return phase


def _check_width(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _sine_integral(x: float) -> float:
    """``Si(x)``, the integral of ``sin(t)/t`` from 0 to ``x`` (A&S 5.2.1).

    The odd power series for ``|x| <= 2``; above that ``Si = pi/2 + Im(h)``
    with ``h = exp(-ix) E1(ix)``, ``E1`` by the modified-Lentz continued
    fraction (A&S 5.2.23; Numerical Recipes 6.8). Relative error below
    2e-15, largest just above the switch at 2.
    """
    t = abs(x)
    if t <= 2.0:
        term = total = t
        k = 1
        while abs(term) > 1e-17 * total:
            term *= -t * t / ((2 * k) * (2 * k + 1))
            total += term / (2 * k + 1)
            k += 1
        return math.copysign(total, x)
    if t == math.inf:
        return math.copysign(math.pi / 2, x)
    b = complex(1.0, t)
    c = 1e300
    d = h = 1.0 / b
    for i in range(2, 1000):  # about 90 steps just above 2, fewer further out
        a = -(i - 1) ** 2
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step.real - 1.0) + abs(step.imag) < 1e-16:
            break
    h *= complex(math.cos(t), -math.sin(t))
    return math.copysign(math.pi / 2 + h.imag, x)


class _AnalyticShape(SpectralDensity):
    """A closed-form shape: a finite center offset and one width, the
    field named by ``_width_field``."""

    _width_field: str

    def __post_init__(self):
        _check_width(self._width_field, self.characteristic_width)
        if not math.isfinite(self.center_offset):
            raise ValueError("center_offset must be finite")

    @property
    def characteristic_width(self) -> float:
        return getattr(self, self._width_field)

    def with_width_scaled(self, factor: float) -> "_AnalyticShape":
        _check_width("factor", factor)
        return replace(self, **{self._width_field: self.characteristic_width * factor})

    def _centre_phase(self, delays: np.ndarray) -> np.ndarray:
        """``exp(-i center_offset delay)``, the factor every closed form shares."""
        return np.exp(-1j * _phases(self.center_offset, delays))


@dataclass(frozen=True)
class Gaussian(_AnalyticShape):
    """Unit-area Gaussian, ``sigma`` is the standard deviation in rad/s."""

    sigma: float
    center_offset: float = 0.0
    _width_field = "sigma"

    def evaluate(self, detuning):
        u = (np.asarray(detuning, dtype=float) - self.center_offset) / self.sigma
        out = np.exp(-0.5 * u * u) / (self.sigma * _SQRT_2PI)
        return out if out.ndim else float(out)

    def mass_outside(self, lo: float, hi: float) -> float:
        a = (lo - self.center_offset) / (self.sigma * math.sqrt(2.0))
        b = (hi - self.center_offset) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (math.erfc(-a) + math.erfc(b))

    def analytic_transform(self, delays: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # past |sigma * delay| ~ 1.3e154 the square is inf
            mag = np.exp(-0.5 * (self.sigma * delays) ** 2)
        return mag * self._centre_phase(delays)


@dataclass(frozen=True)
class Lorentzian(_AnalyticShape):
    """Unit-area Lorentzian, ``gamma`` is the half-width at half maximum."""

    gamma: float
    center_offset: float = 0.0
    _width_field = "gamma"

    def evaluate(self, detuning):
        u = np.asarray(detuning, dtype=float) - self.center_offset
        out = (self.gamma / math.pi) / (u * u + self.gamma * self.gamma)
        return out if out.ndim else float(out)

    def mass_outside(self, lo: float, hi: float) -> float:
        a = (lo - self.center_offset) / self.gamma
        b = (hi - self.center_offset) / self.gamma
        return (0.5 + math.atan(a) / math.pi) + (0.5 - math.atan(b) / math.pi)

    def analytic_transform(self, delays: np.ndarray) -> np.ndarray:
        mag = np.exp(-self.gamma * np.abs(delays))
        return mag * self._centre_phase(delays)


@dataclass(frozen=True)
class SincSquared(_AnalyticShape):
    """Unit-area sinc-squared profile, ``sin(u/width)**2 / (u/width)**2``.

    Models the boxcar (rectangular-crystal) phase-matching response; the
    first zeros sit at ``center +- pi*width``.
    """

    width: float
    center_offset: float = 0.0
    _width_field = "width"

    def evaluate(self, detuning):
        u = (np.asarray(detuning, dtype=float) - self.center_offset) / self.width
        out = np.sinc(u / math.pi) ** 2 / (math.pi * self.width)
        return out if out.ndim else float(out)

    def _mass_above(self, x: float) -> float:
        # one-sided mass beyond center + x, x in rad/s (may be negative)
        t = x / self.width
        if t == 0.0:
            return 0.5
        if t < 0.0:
            return 1.0 - self._mass_above(-x)
        si = _sine_integral(2.0 * t)
        return (math.sin(t) ** 2 / t + math.pi / 2 - si) / math.pi

    def mass_outside(self, lo: float, hi: float) -> float:
        below = 1.0 - self._mass_above(lo - self.center_offset)
        above = self._mass_above(hi - self.center_offset)
        return below + above

    def analytic_transform(self, delays: np.ndarray) -> np.ndarray:
        # Fourier pair of sinc^2 is the triangle function.
        mag = np.maximum(0.0, 1.0 - np.abs(delays) * self.width / 2.0)
        return mag * self._centre_phase(delays)


class Tabulated(SpectralDensity):
    """Piecewise-linear density on a strictly increasing grid.

    Zero outside the grid support. Construct with raw samples and call
    :meth:`normalize` before feeding it to the coherence engine.
    """

    def __init__(self, grid, values, center_offset: float = 0.0):
        grid = np.asarray(grid, dtype=float) + center_offset  # checked once shifted
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be 1D with at least two points")
        if values.shape != grid.shape:
            raise ValueError("grid and values must have the same shape")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise ValueError("grid and values must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        self.grid = grid
        self.values = values
        self.grid.setflags(write=False)
        self.values.setflags(write=False)
        self._area = float(np.trapezoid(self.values, self.grid))

    @classmethod
    def from_file(cls, path, center_offset: float = 0.0) -> "Tabulated":
        """Load a two-column text file (detuning rad/s, value); the grid is
        shifted by ``center_offset``."""
        data = np.loadtxt(path, dtype=float, ndmin=2)  # one row stays a row
        if data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns (detuning, value)")
        return cls(data[:, 0], data[:, 1], center_offset=center_offset)

    def __repr__(self):
        return (f"Tabulated(n={self.grid.size}, support=({self.grid[0]:g}, "
                f"{self.grid[-1]:g}), area={self._area:g})")

    @property
    def area(self) -> float:
        return self._area

    @property
    def center(self) -> float:
        return float(self.grid[int(np.argmax(self.values))])

    @property
    def characteristic_width(self) -> float:
        # RMS width of the (renormalized) samples; falls back to the
        # half-span for degenerate tables.
        if self._area > 0:
            w = self.values / self._area
            mean = np.trapezoid(self.grid * w, self.grid)
            var = np.trapezoid((self.grid - mean) ** 2 * w, self.grid)
            if var > 0:
                return float(math.sqrt(var))
        return float(0.5 * (self.grid[-1] - self.grid[0]))

    @property
    def is_normalized(self) -> bool:
        return abs(self._area - 1.0) <= 1e-6

    def evaluate(self, detuning):
        x = np.asarray(detuning, dtype=float)
        out = np.interp(x, self.grid, self.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def normalize(self) -> "Tabulated":
        if not math.isfinite(self._area) or self._area <= 0:
            raise NormalizationError(
                f"tabulated density has non-normalizable area {self._area!r}")
        return Tabulated(self.grid, self.values / self._area)

    def support(self) -> tuple[float, float]:
        return (float(self.grid[0]), float(self.grid[-1]))

    def with_width_scaled(self, factor: float) -> "Tabulated":
        # scaled about the peak, like the analytic shapes, which keep their center
        _check_width("factor", factor)
        c = self.center
        return Tabulated(c + (self.grid - c) * factor, self.values / factor)


@dataclass(frozen=True)
class Separable:
    """Product joint density ``d1(x) * d2(y)`` of two 1D densities."""

    d1: SpectralDensity
    d2: SpectralDensity

    @property
    def is_normalized(self) -> bool:
        return self.d1.is_normalized and self.d2.is_normalized

    def evaluate(self, x, y):
        return np.asarray(self.d1.evaluate(x)) * np.asarray(self.d2.evaluate(y))

    def normalize(self) -> "Separable":
        return Separable(self.d1.normalize(), self.d2.normalize())


def _interpolation_cell(grid: np.ndarray, x):
    """Left knot index of the cell holding ``x`` and the fraction across it.

    ``grid`` is finite and strictly increasing. The index is clipped to a real
    cell, so points outside the grid extrapolate from the end cells; at a knot
    the fraction is exactly 0 or 1.
    """
    i = np.clip(np.searchsorted(grid, x) - 1, 0, grid.size - 2)
    x0 = grid[i]
    return i, (x - x0) / (grid[i + 1] - x0)


class Tabulated2D:
    """Joint density tabulated on a rectangular grid, zero outside it.

    The table is its bilinear interpolant: :meth:`evaluate` interpolates
    bilinearly, normalization takes that interpolant's exact area (the 2D
    trapezoid rule), and the coherence transform is that interpolant's, as a
    1D :class:`Tabulated` transforms as its piecewise-linear interpolant.
    """

    def __init__(self, grid1, grid2, values):
        grid1 = np.asarray(grid1, dtype=float)
        grid2 = np.asarray(grid2, dtype=float)
        values = np.asarray(values, dtype=float)
        for name, g in (("grid1", grid1), ("grid2", grid2)):
            if g.ndim != 1 or g.size < 2:
                raise ValueError(f"{name} must be 1D with at least two points")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{name} must be finite")
            if np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if values.shape != (grid1.size, grid2.size):
            raise ValueError("values must have shape (len(grid1), len(grid2))")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be finite and nonnegative")
        self.grid1 = grid1
        self.grid2 = grid2
        self.values = values
        for a in (self.grid1, self.grid2, self.values):
            a.setflags(write=False)
        self._area = float(np.trapezoid(np.trapezoid(values, grid2, axis=1), grid1))

    def __repr__(self):
        return (f"Tabulated2D(shape={self.values.shape}, area={self._area:g})")

    @property
    def area(self) -> float:
        return self._area

    @property
    def is_normalized(self) -> bool:
        return abs(self._area - 1.0) <= 1e-6

    def evaluate(self, x, y):
        """Bilinear interpolation at broadcastable coordinates, 0 outside."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        i, tx = _interpolation_cell(self.grid1, x)
        j, ty = _interpolation_cell(self.grid2, y)
        v = ((1 - tx) * (1 - ty) * self.values[i, j]
             + tx * (1 - ty) * self.values[i + 1, j]
             + (1 - tx) * ty * self.values[i, j + 1]
             + tx * ty * self.values[i + 1, j + 1])
        inside = ((x >= self.grid1[0]) & (x <= self.grid1[-1])
                  & (y >= self.grid2[0]) & (y <= self.grid2[-1]))
        out = np.where(inside, v, 0.0)
        return out if out.ndim else float(out)

    def marginals(self) -> tuple[Tabulated, Tabulated]:
        """The 1D densities on ``grid1`` and ``grid2``: the trapezoid of
        ``values`` along the other axis."""
        return (Tabulated(self.grid1, np.trapezoid(self.values, self.grid2, axis=1)),
                Tabulated(self.grid2, np.trapezoid(self.values, self.grid1, axis=0)))

    def normalize(self) -> "Tabulated2D":
        if not math.isfinite(self._area) or self._area <= 0:
            raise NormalizationError(
                f"2D tabulated density has non-normalizable area {self._area!r}")
        return Tabulated2D(self.grid1, self.grid2, self.values / self._area)


JointSpectralDensity = Separable | Tabulated2D


def joint_widths(pm: JointSpectralDensity) -> tuple[float, float]:
    """Prime and double-prime axis widths (rad/s) of a joint density.

    The characteristic widths of a separable density's factors; the grid
    half-spans of a tabulated one.
    """
    if isinstance(pm, Separable):
        return pm.d1.characteristic_width, pm.d2.characteristic_width
    if isinstance(pm, Tabulated2D):
        return (0.5 * float(pm.grid1[-1] - pm.grid1[0]),
                0.5 * float(pm.grid2[-1] - pm.grid2[0]))
    raise TypeError(f"unsupported joint density type {type(pm).__name__}")
