"""The graded-window quadrature: the tests' reference for the closed forms.

The library transforms the analytic shapes only in closed form. This is
the generic quadrature's infinite-support half, kept as an independent
reference for them: ``coherence._segmented_fourier`` (the engine a table
takes) integrates the shape over a graded window (dense inner core,
one-width outer steps, out to ``WINDOW_WIDTHS`` characteristic widths) in
centered coordinates, so large carrier offsets never inflate the
oscillation count; the remainder beyond the window is added back
analytically per shape (exact sine-integral forms, see
:func:`oscillatory_tail`), then the centre phase.
"""

import math

import numpy as np

from triphoton import coherence
from triphoton.errors import IntegrationError
from triphoton.spectra import Lorentzian, SincSquared, _sine_integral

# Half-width of the quadrature window in characteristic widths. Wide
# enough that the Gaussian remainder is below double precision and the
# heavy-tail corrections' expansions converge fast.
WINDOW_WIDTHS = 64.0
_INNER_WIDTHS = 8.0  # densely sampled core of the window


def _cos_tail_integral(n: int, freq: float, lower: float) -> float:
    """``integral of cos(freq*u)/u**(2n) du`` from ``lower`` to infinity, exact.

    Recursive integration by parts; the n=1 base case is the standard
    sine-integral form. ``freq`` may be zero.
    """
    t = abs(freq)
    if n == 1:
        if t == 0.0:
            return 1.0 / lower
        si = _sine_integral(t * lower)
        return math.cos(t * lower) / lower - t * (math.pi / 2 - si)
    m = 2 * n
    return (
        math.cos(t * lower) / ((m - 1) * lower ** (m - 1))
        - t * math.sin(t * lower) / ((m - 1) * (m - 2) * lower ** (m - 2))
        - t * t / ((m - 1) * (m - 2)) * _cos_tail_integral(n - 1, t, lower)
    )


def oscillatory_tail(density, half_span: float, delay: float) -> float:
    """Both-sided ``integral of f(u) cos(u*delay) du`` over ``|u - center| > half_span``.

    Corrects the finite-window Fourier integrals of shapes with slowly
    decaying tails. The Gaussian, effectively compact, returns 0.
    """
    if isinstance(density, Lorentzian):
        # Expand 1/(u^2 + g^2) in powers of (g/u)^2; three terms leave a
        # relative residual ~(g/half_span)^7, negligible for spans >= 32 g.
        g = density.gamma
        i2 = _cos_tail_integral(1, delay, half_span)
        i4 = _cos_tail_integral(2, delay, half_span)
        i6 = _cos_tail_integral(3, delay, half_span)
        one_side = (g / math.pi) * (i2 - g * g * i4 + g ** 4 * i6)
        return 2.0 * one_side
    if isinstance(density, SincSquared):
        # f(u) = w sin^2(u/w) / (pi u^2); with sin^2 = (1 - cos(2u/w))/2 the
        # tail reduces exactly to three sine-integral kernels.
        w = density.width
        t = abs(delay)
        one_side = (w / (2.0 * math.pi)) * (
            _cos_tail_integral(1, t, half_span)
            - 0.5 * _cos_tail_integral(1, 2.0 / w + t, half_span)
            - 0.5 * _cos_tail_integral(1, abs(2.0 / w - t), half_span)
        )
        return 2.0 * one_side
    return 0.0


def _window_knots(width: float) -> np.ndarray:
    """Graded window: quarter-width steps in the core (peaked shapes),
    one-width steps outside (densities may keep oscillating on the width
    scale arbitrarily far out, so the outer step must not grow)."""
    inner = np.linspace(-_INNER_WIDTHS, _INNER_WIDTHS, 65)
    outer = np.arange(_INNER_WIDTHS + 1.0, WINDOW_WIDTHS + 0.5, 1.0)
    return np.concatenate([-outer[::-1], inner, outer]) * width


def transform(density, delays: np.ndarray) -> np.ndarray:
    """Fourier integrals of an analytic shape at the 1D float array ``delays``,
    accepted as the library's quadrature accepts a table's; the first failure
    gets its ``index``."""
    # centered coordinates keep the oscillation count proportional to
    # delay * width rather than delay * carrier offset
    center = density.center
    knots = _window_knots(density.characteristic_width)
    f = lambda u: density.evaluate(center + u)  # noqa: E731
    try:
        z, err = coherence._segmented_fourier(f, knots, delays)
    except IntegrationError as e:  # unless an earlier delay fails to converge
        transform(density, delays[:e.index])
        raise
    # the remainder beyond the window, then the centre phase
    for k, delay in enumerate(delays.tolist()):
        zk = complex(z[k]) + oscillatory_tail(density, float(knots[-1]), delay)
        if center != 0.0:
            zk *= complex(math.cos(center * delay), -math.sin(center * delay))
        z[k] = zk
    bad = np.flatnonzero(err > coherence._QUAD_ACCEPT * np.fmax(1.0, np.hypot(z.real, z.imag)))
    if bad.size:
        k = int(bad[0])
        raise IntegrationError(
            f"coherence quadrature did not converge (estimated error {err[k]:.3e})",
            value=complex(z[k]), error_estimate=float(err[k]), index=k)
    return z
