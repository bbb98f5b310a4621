"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports ``triphoton``: every expected value is rebuilt from
the generated inputs with plain numpy, so a check compares two codes
that share no implementation.

* analytic 1D shapes: the textbook closed forms (Gaussian, Lorentzian
  ``exp(-gamma |tau|)``, sinc-squared triangle);
* tabulated 1D densities: the exact Fourier transform of the
  piecewise-linear interpolant, as a sum of hat-function transforms;
* tabulated 2D densities: the exact transform of the bilinear
  interpolant, ``H1^T V H2``, and the continuum transform of the
  correlated Gaussian the table samples.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


def omega_from_nm(lam_nm: float) -> float:
    return 2.0 * math.pi * SPEED_OF_LIGHT / (lam_nm * 1e-9)


def carrier_omegas(kind: str, choice: int, wa: float, wb: float, wc: float):
    """Carrier frequencies multiplying (dtau, dtau', dtau'') in the cosine."""
    wp = wa + wb + wc
    if kind == "cpdc":
        return wp, wa - wb - wc, wb - wc
    return {1: (wp, (wa + wc - 2 * wb) / 3, (wa + wb - 2 * wc) / 3),
            2: (wp, (wb + wc - 2 * wa) / 3, (wa + wb - 2 * wc) / 3),
            3: (wp, (wa + wc - 2 * wb) / 3, (wb + wc - 2 * wa) / 3)}[choice]


def native_pm_delays(kind: str, choice: int, dtp, dtd):
    """Asymmetry delays in the joint density's own (choice-1) coordinates."""
    if kind == "cpdc" or choice == 1:
        return dtp, dtd
    if choice == 2:
        return -dtp, dtd - dtp
    return dtp - dtd, -dtd


def ft_closed(kind: str, width: float, offset: float, tau) -> np.ndarray:
    """Closed-form transform of a unit-area analytic shape at delays ``tau``."""
    tau = np.asarray(tau, dtype=float)
    if kind == "gaussian":
        mag = np.exp(-0.5 * (width * tau) ** 2)
    elif kind == "lorentzian":
        mag = np.exp(-width * np.abs(tau))
    elif kind == "sinc_squared":
        mag = np.maximum(0.0, 1.0 - np.abs(tau) * width / 2.0)
    else:
        raise ValueError(f"no closed form for {kind!r}")
    return mag * np.exp(-1j * offset * tau)


def _segment_moments(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A = int_0^1 (1-s) e^{-i theta s} ds`` and ``B = int_0^1 s e^{-i theta s} ds``.

    The closed forms lose digits to cancellation as theta -> 0, so small
    phases use the power series (truncation far below 1e-16 there).
    """
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 0.05
    t = np.where(small, 1.0, theta)
    e = np.exp(-1j * t)
    whole = (1.0 - e) / (1j * t)
    b = e * (1j / t + 1.0 / t ** 2) - 1.0 / t ** 2
    a_series = np.zeros(theta.shape, dtype=complex)
    b_series = np.zeros(theta.shape, dtype=complex)
    term = np.ones(theta.shape, dtype=complex)
    for n in range(10):
        a_series += term / ((n + 1) * (n + 2))
        b_series += term / (n + 2)
        term = term * (-1j * theta) / (n + 1)
    a = np.where(small, a_series, whole - b)
    b = np.where(small, b_series, b)
    return a, b


def hat_transforms(grid: np.ndarray, tau) -> np.ndarray:
    """Exact transforms of the piecewise-linear hat basis on ``grid``.

    Row ``i`` holds ``int hat_k(x) exp(-i tau_i x) dx`` for every knot
    ``k``, so ``hat_transforms(grid, tau) @ values`` is the transform of
    the interpolant through ``values``.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))[:, None]
    h = np.diff(grid)[None, :]
    a, b = _segment_moments(tau * h)
    start = h * np.exp(-1j * tau * grid[None, :-1])
    out = np.zeros((tau.shape[0], grid.size), dtype=complex)
    out[:, :-1] += start * a
    out[:, 1:] += start * b
    return out


def ft_piecewise_linear(grid: np.ndarray, values: np.ndarray, tau) -> np.ndarray:
    """Exact transform of the unit-area piecewise-linear density."""
    area = float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(grid)))
    return hat_transforms(grid, tau) @ (values / area)


def ft_bilinear(grid1, grid2, values, tau1, tau2) -> np.ndarray:
    """Exact transform ``H1 V H2^T`` of the unit-area bilinear density."""
    w1 = np.diff(grid1)
    w2 = np.diff(grid2)
    cell = 0.25 * (values[1:, 1:] + values[1:, :-1] + values[:-1, 1:] + values[:-1, :-1])
    area = float(np.sum(cell * w1[:, None] * w2[None, :]))
    return hat_transforms(grid1, tau1) @ (values / area) @ hat_transforms(grid2, tau2).T


def ft_gaussian2d(mu1, mu2, s1, s2, rho, tau1, tau2) -> np.ndarray:
    """Continuum transform of a correlated bivariate Gaussian, on a tau1 x tau2 grid."""
    t1 = np.atleast_1d(np.asarray(tau1, dtype=float))[:, None]
    t2 = np.atleast_1d(np.asarray(tau2, dtype=float))[None, :]
    quad = (s1 * t1) ** 2 + 2 * rho * s1 * s2 * t1 * t2 + (s2 * t2) ** 2
    return np.exp(-0.5 * quad - 1j * (mu1 * t1 + mu2 * t2))


def half_level_delay(mag, upper: float) -> float:
    """Smallest tau > 0 with ``mag(tau) == 1/2`` for a decreasing profile, by bisection."""
    lo, hi = 0.0, upper
    if mag(hi) > 0.5:
        raise ValueError("profile does not fall to half depth inside the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mag(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wrap_phase(x):
    """Map angles onto (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(x, dtype=float)))
