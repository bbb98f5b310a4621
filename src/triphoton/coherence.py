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
A density's kind picks its path: a closed form (one numpy expression)
for a shape that has one, else the generic composite Gauss-Legendre
rule whose pieces break at every density knot and never span more than
1.5 rad of oscillation, so each piece is polynomially smooth no matter
how large the delay gets (silent accuracy loss on oscillatory integrands
is the classic failure mode this avoids). A lower-order rule on the same
pieces gives the error estimate. Delays with the same piece counts share
one layout and one density evaluation per rule; since no count falls as
``|delay|`` grows, equal total counts mean equal layouts, so sorting the
totals groups the delays.

* finite-support (tabulated) densities are integrated over their exact
  support with pieces breaking at the table knots;
* infinite-support shapes are integrated over a graded window (dense
  inner core, one-width outer steps, out to ``WINDOW_WIDTHS``
  characteristic widths) in centered coordinates, so large carrier
  offsets never inflate the oscillation count; the remainder beyond the
  window is added back analytically per shape (exact sine-integral
  forms, see ``SpectralDensity.oscillatory_tail``).

Each layout's rules are reduced once to moments about the piece centres,
so a delay costs one phase per piece rather than one per node: a piece of
centre c sums as ``exp(-i c delay)`` times a power series in
``-i delay s``, s the layout's widest half-width. Since ``|delay| s`` is
at most 0.75, 20 terms leave a remainder below ``0.75**20 / 20!`` (about
1e-21) of the mass. The phase of the layout's midpoint is applied exactly
(Dekker's product), so tables far off centre lose no digits to it.

2D separable densities factor into two 1D transforms. 2D tabulated
densities use a tensor trapezoid sum, Richardson-extrapolated over two
grid halvings, one transform for the pairs of :func:`joint_transforms` and
the grid of :func:`coherence_surface`. Each element is summed alone, so a
surface cell equals the pair at its delays. An unresolved oscillation
raises :class:`IntegrationError` naming the first failing pair or cell
rather than returning a quietly wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import IntegrationError
from .spectra import SpectralDensity, Separable, Tabulated2D, JointSpectralDensity

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


# Gauss-Legendre nodes and weights on [-1, 1], 12 and 6 points: the exact
# doubles of numpy.polynomial.legendre.leggauss(12) and (6), written out so
# that importing this module does not load numpy.polynomial (1.8 MB resident)
_GL_HI = (np.array([-0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
                    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
                    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                    0.7699026741943047, 0.9041172563704748, 0.9815606342467192]),
          np.array([0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
                    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
                    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                    0.16007832854334642, 0.10693932599531907, 0.04717533638651141]))
_GL_LO = (np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                    0.2386191860831969, 0.6612093864662645, 0.9324695142031519]),
          np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                    0.46791393457269104, 0.3607615730481387, 0.17132449237917027]))
_MAX_PHASE_PER_PIECE = 1.5  # radians of oscillation per quadrature piece
# Series terms of a piece's phase about its centre: |delay| * half-width is
# at most 0.75, so the truncated remainder is below 0.75**20 / 20! ~ 1e-21
# of the mass.
_TERMS = np.arange(20)
# Most quadrature pieces one transform may lay out: each holds ~0.54 kB while
# the rules run (537 B under tracemalloc at 65,202 pieces), so the cap bounds
# a transform near 140 MB. Resolvable delays stay far below it (the tests
# reach 8e4 pieces, the benchmark 400).
_MAX_PIECES = 2 ** 18
# Delay x piece cells in one array pass of the quadrature: a block's phase and
# trig arrays stay near 0.4 MB however many delays a transform takes.
_BLOCK_CELLS = 2 ** 14


def _moments(f, piece_lo: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Rows m of the 12-node rule, then of the 6-node rule, of the piece
    moments ``(h/s)**m / m! * sum_k h w_k f(x_k) xi_k**m``: nodes
    ``x_k = lo + h (xi_k + 1)``, half-widths ``h``, widest half-width ``s``.
    One ``f`` call per rule; its nodes and values are freed before the next."""
    n = _TERMS.size
    out = np.empty((2, n, piece_lo.size))
    for rows, (x_ref, w_ref) in zip(out, (_GL_HI, _GL_LO)):
        x = piece_lo[:, None] + half[:, None] * (x_ref[None, :] + 1.0)
        fx = np.asarray(f(x))
        del x
        hwf = fx * half[:, None]
        del fx
        hwf *= w_ref
        np.matmul(x_ref[None, :] ** _TERMS[:, None], hwf.T, out=rows)
        del hwf
    ratio, scale = half / half.max(), np.ones_like(half)
    for m in range(1, n):
        scale *= ratio
        scale /= m
        out[:, m] *= scale
    return out.reshape(2 * n, -1)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """``(p, e)`` with ``p`` the rounded ``a * b`` and ``p + e`` exactly
    ``a * b`` (Dekker's product; Veltkamp's split into 26-bit halves is
    taken on the ``frexp`` mantissas, so nothing overflows)."""
    halves = []
    for v in (a, b):
        m, k = math.frexp(v)
        t = 134217729.0 * m  # 2**27 + 1
        hi = t - (t - m)
        halves.append((math.ldexp(hi, k), math.ldexp(m - hi, k)))
    (a1, a2), (b1, b2) = halves
    p = a * b
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _phase_factor(x: float, delay: float) -> complex:
    """``exp(-i x delay)`` with the rounding error of ``x * delay`` kept as a
    second phase, so a phase of many cycles loses no digits."""
    p, e = _two_product(x, delay)
    return complex(math.cos(p), -math.sin(p)) * complex(math.cos(e), -math.sin(e))


def _layout_sums(f, piece_lo: np.ndarray, half: np.ndarray, origin: float,
                 delays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays ``(z, err)``: 12-node rule sums on one piece layout, per delay, and
    their distances to the 6-node sums.

    A piece of centre ``origin + c`` sums as ``exp(-i (origin + c) delay)``
    times ``sum_m (-i delay s)**m`` over its :func:`_moments`, so a delay
    costs one phase per piece, not one per node; the common phase about
    ``origin`` is exact, so far-off-centre pieces lose no digits to it.
    """
    moments = _moments(f, piece_lo, half)
    centre, s, n = (piece_lo - origin) + half, float(half.max()), _TERMS.size
    step = max(1, _BLOCK_CELLS // centre.size)
    z, err = np.empty(delays.size, dtype=complex), np.empty(delays.size)
    # one array pass per block of about _BLOCK_CELLS delay x piece cells bounds
    # the memory; in a block each delay keeps the (2n x P) by (P x 2) product and
    # n-term dots it gets alone, as one product over several can round a row apart
    for i in range(0, delays.size, step):
        block = delays[i:i + step]
        phase = block[:, None] * centre
        trig = np.empty((block.size, 2, centre.size))
        np.cos(phase, out=trig[:, 0])
        np.sin(phase, out=trig[:, 1])
        # per moment, (cos sum) + i (sin sum), conjugated as np.vdot would
        b = np.matmul(moments, trig.transpose(0, 2, 1)).view(complex)[..., 0].conj()
        del phase, trig
        p = (-1j * (block * s))[:, None] ** _TERMS * np.array(
            [_phase_factor(origin, delay) for delay in block.tolist()])[:, None]
        z_hi, z_lo = np.matmul(b.reshape(-1, 2, 1, n), p[:, None, :, None]).reshape(-1, 2).T
        d = z_hi - z_lo  # hypot rounds as abs(complex) does; np.abs may not
        z[i:i + step], err[i:i + step] = z_hi, np.hypot(d.real, d.imag)
    return z, err


def _piece_counts(delays: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Pieces per knot interval, as floats: enough that none spans more than
    ``_MAX_PHASE_PER_PIECE`` at the delay; they never fall as ``|delay|`` grows."""
    return np.maximum(1, np.ceil(np.abs(delays) * widths / _MAX_PHASE_PER_PIECE))


def _segmented_fourier(f, knots: np.ndarray,
                       delays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``integral of f(x) exp(-i x delay) dx`` over [knots[0], knots[-1]] per delay.

    Composite Gauss-Legendre with pieces that break at every knot (where
    tabulated densities kink) and never span more than a fraction of an
    oscillation cycle, so each piece is polynomially smooth. The error
    estimate ``err`` compares against a lower-order rule on the same pieces.
    Delays with the same piece counts share a layout, its moments and one
    :func:`_layout_sums` pass; a delay over the piece cap raises, with its
    position as ``index``, before any ``f`` call.
    """
    widths = np.diff(knots)
    totals = np.empty(delays.size)  # pieces per delay
    step = max(1, _BLOCK_CELLS // widths.size)
    with np.errstate(over="ignore"):  # an overflowing count is inf, over the cap
        for i in range(0, delays.size, step):
            totals[i:i + step] = _piece_counts(delays[i:i + step, None], widths).sum(axis=1)
    over = np.flatnonzero(~(totals <= _MAX_PIECES))  # counted as floats, before any cast
    if over.size:
        k = int(over[0])
        raise IntegrationError(
            f"coherence quadrature at delay {float(delays[k])!r} s needs "
            f"{float(totals[k]):.3g} pieces, more than the {_MAX_PIECES} allowed", index=k)
    # of two delays, the one of larger |delay| has every count at least as
    # large, so equal (exact) totals mean equal counts: a run of equal totals
    # in sorted order is one layout, and it holds its delays in input order
    order = np.argsort(totals, kind="stable")
    # where the sorted totals change; totals are at least 1, so the padding
    # zeros mark the first run's start and the last run's end
    runs = np.flatnonzero(np.diff(totals[order], prepend=0.0, append=0.0)).tolist()
    origin = 0.5 * float(knots[0]) + 0.5 * float(knots[-1])  # 0 for a symmetric window
    z, err = np.empty(delays.size, dtype=complex), np.empty(delays.size)
    for lo, hi in zip(runs[:-1], runs[1:]):
        rows = order[lo:hi]
        n_sub = _piece_counts(delays[rows[0]], widths).astype(int)
        # piece j of knot interval [a, a + w) split n ways starts at a + (w*j)/n
        first = np.cumsum(n_sub) - n_sub
        j = np.arange(first[-1] + n_sub[-1]) - np.repeat(first, n_sub)
        piece_lo = np.repeat(knots[:-1], n_sub) + (
            np.repeat(widths, n_sub) * j / np.repeat(n_sub, n_sub))
        half = 0.5 * np.repeat(widths / n_sub, n_sub)
        z[rows], err[rows] = _layout_sums(f, piece_lo, half, origin, delays[rows])
    return z, err


def _window_knots(width: float) -> np.ndarray:
    """Graded window: quarter-width steps in the core (peaked shapes),
    one-width steps outside (densities may keep oscillating on the width
    scale arbitrarily far out, so the outer step must not grow)."""
    inner = np.linspace(-_INNER_WIDTHS, _INNER_WIDTHS, 65)
    outer = np.arange(_INNER_WIDTHS + 1.0, WINDOW_WIDTHS + 0.5, 1.0)
    return np.concatenate([-outer[::-1], inner, outer]) * width


def _transform_quadrature(density: SpectralDensity, delays: np.ndarray) -> np.ndarray:
    """Generic Fourier integrals at the delays, on any 1D density (the tests'
    reference for the closed forms); the first failure gets its ``index``."""
    lo, hi = density.support()
    infinite = math.isinf(lo) or math.isinf(hi)
    if infinite:
        # centered coordinates keep the oscillation count proportional to
        # delay * width rather than delay * carrier offset
        center = density.center
        knots = _window_knots(density.characteristic_width)
        f = lambda u: density.evaluate(center + u)  # noqa: E731
    else:
        knots = density.grid  # a table, the one density of finite support
        f = density.evaluate
    try:
        z, err = _segmented_fourier(f, knots, delays)
    except IntegrationError as e:  # unless an earlier delay fails to converge
        _transform_quadrature(density, delays[:e.index])
        raise
    if infinite:  # the remainder beyond the window, then the centre phase
        for k, delay in enumerate(delays.tolist()):
            zk = complex(z[k]) + density.oscillatory_tail(float(knots[-1]), delay)
            if center != 0.0:
                zk *= complex(math.cos(center * delay), -math.sin(center * delay))
            z[k] = zk
    err = np.broadcast_to(err, z.shape)  # fmax and hypot as Python's max and abs
    bad = np.flatnonzero(err > _QUAD_ACCEPT * np.fmax(1.0, np.hypot(z.real, z.imag)))
    if bad.size:
        k = int(bad[0])
        raise IntegrationError(
            f"coherence quadrature did not converge (estimated error {err[k]:.3e})",
            value=complex(z[k]), error_estimate=float(err[k]), index=k)
    return z


def transforms(density: SpectralDensity, delays) -> np.ndarray:
    """Complex Fourier transforms of a density at each of the ``delays`` (s),
    in their shape (a 0-d delay gives a numpy complex scalar).

    The density's kind picks the path: its closed form where it has one,
    else the quadrature engine, which raises :class:`IntegrationError` at the
    first delay, in raveled order, that it cannot resolve.
    """
    delays = np.asarray(delays, dtype=float)
    _check_normalized(density)
    z = density.analytic_transform(delays)
    if z is None:
        z = _transform_quadrature(density, delays.ravel()).reshape(delays.shape)[()]
    return z


def _check_normalized(density) -> None:
    """The one normalization check, made before any sum (of both ``Separable`` factors)."""
    if not density.is_normalized:
        raise ValueError("density must be normalized (call normalize() first)")


def transform_1d(density: SpectralDensity, delay: float) -> complex:
    """Complex Fourier transform of a density at one ``delay`` (s): the
    one-row view of :func:`transforms`."""
    return complex(transforms(density, [delay])[0])


def gamma_pump(pump: SpectralDensity, delta_tau: float) -> CoherenceValue:
    """Pump coherence factor at collective delay ``delta_tau`` (s)."""
    return CoherenceValue.from_complex(transform_1d(pump, delta_tau))


def _tabulated2d_transform(pm: Tabulated2D, taus_prime, taus_dprime) -> np.ndarray:
    """Tensor trapezoid sums at the numpy broadcast of the delay arrays,
    Richardson-extrapolated over two grid halvings, whose spread is the error
    estimate (exact-order reasoning assumes near-uniform grids; on arbitrary
    grids it stays a serviceable consistency check). An element's row product
    ``(w1 exp(-i t' g1)) V`` and closing dot with ``w2 exp(-i t'' g2)`` are each
    one item of a batched ``np.matmul``, so its bits depend only on its own
    delays. The first failing element, raveled, raises with that ``index``.
    """
    tp, td = np.asarray(taus_prime, dtype=float), np.asarray(taus_dprime, dtype=float)
    g1, g2, v = pm.grid1, pm.grid2, pm.values
    e1 = np.exp(-1j * (tp[..., None, None] * g1))  # a 1 x n1 row per t'
    e2 = np.exp(-1j * (td[..., None, None] * g2))

    def trap(idx1, idx2):
        # take gives C-ordered rows: every element's vectors have unit stride,
        # as BLAS may round a strided dot differently
        a = _trapezoid_weights(g1[idx1]) * e1.take(idx1, axis=-1)
        b = _trapezoid_weights(g2[idx2]) * e2.take(idx2, axis=-1)
        table = v.take(idx1, axis=0).take(idx2, axis=1).astype(complex)  # matmul casts slower
        return (a @ table @ b.swapaxes(-1, -2))[..., 0, 0]

    levels = [(np.arange(g1.size), np.arange(g2.size))]  # full, half, quarter
    for _ in range(2):  # a halving keeps every other knot and the last
        levels.append(tuple(np.append(i[:-1:2], i[-1]) for i in levels[-1]))
    full, half, quarter = (trap(*level) for level in levels)
    extrap = full + (full - half) / 3.0
    extrap_coarse = half + (half - quarter) / 3.0
    err = np.abs(extrap - extrap_coarse)
    bad = np.flatnonzero(err > _TAB2D_ACCEPT * np.maximum(1.0, np.abs(extrap)))
    if bad.size:
        k = int(bad[0])
        t1, t2 = (float(np.broadcast_to(t, err.shape).flat[k]) for t in (tp, td))
        raise IntegrationError(
            f"2D tabulated transform inconsistent under grid halving (estimated error "
            f"{err.flat[k]:.3e}); the table is too coarse for delays ({t1:.3e}, {t2:.3e})",
            value=complex(extrap.flat[k]), error_estimate=float(err.flat[k]), index=k)
    return extrap


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros(grid.size)
    d = np.diff(grid)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


def joint_transforms(pm: JointSpectralDensity, taus_prime, taus_dprime) -> np.ndarray:
    """Complex phase-matching transforms at the numpy broadcast of the delay
    arrays ``taus_prime`` and ``taus_dprime`` (s), in its shape (a 0-d pair gives
    a numpy complex scalar; shapes that do not broadcast raise numpy's
    ``ValueError``); the first failing pair, raveled, raises
    :class:`IntegrationError` with its position as ``index``.

    Separable densities factor exactly into two 1D transforms; a ``Tabulated2D``
    sums each pair alone, in blocks of about ``_BLOCK_CELLS`` pair x knot cells.
    """
    tp, td = np.broadcast_arrays(np.asarray(taus_prime, dtype=float),
                                 np.asarray(taus_dprime, dtype=float))
    if isinstance(pm, Separable):
        _check_normalized(pm)
        try:
            z1 = transforms(pm.d1, tp)
        except IntegrationError as e:  # unless an earlier pair fails in d2
            transforms(pm.d2, td.ravel()[:e.index])
            raise
        return z1 * transforms(pm.d2, td)
    if isinstance(pm, Tabulated2D):
        _check_normalized(pm)
        u, v = tp.ravel(), td.ravel()
        z = np.empty(u.size, dtype=complex)
        step = max(1, _BLOCK_CELLS // pm.grid1.size)
        for i in range(0, u.size, step):
            try:
                z[i:i + step] = _tabulated2d_transform(pm, u[i:i + step], v[i:i + step])
            except IntegrationError as e:
                k = i + e.index
                raise IntegrationError(f"pair {k}: {e}", e.value, e.error_estimate, k) from e
        return z.reshape(tp.shape)[()]
    raise TypeError(f"unsupported joint density type {type(pm).__name__}")


def gamma_prime(pm: JointSpectralDensity, delta_tau_prime: float,
                delta_tau_dprime: float) -> CoherenceValue:
    """Phase-matching coherence factor at the two asymmetry delays (s): the
    one-row view of :func:`joint_transforms`."""
    return CoherenceValue.from_complex(
        joint_transforms(pm, [delta_tau_prime], [delta_tau_dprime])[0])


def coherence_surface(pm: JointSpectralDensity, grid_prime,
                      grid_dprime) -> list[list[CoherenceValue]]:
    """``gamma_prime`` over a delay grid; element [i][j] is the value at
    (grid_prime[i], grid_dprime[j]).

    Separable densities are evaluated once per axis and combined, so the
    cost is linear rather than quadratic in the grid sizes.
    """
    gp = np.asarray(grid_prime, dtype=float).ravel()
    gd = np.asarray(grid_dprime, dtype=float).ravel()
    if isinstance(pm, Separable):
        _check_normalized(pm)
        z = np.outer(_surface_axis(pm.d1, gp, "row"), _surface_axis(pm.d2, gd, "column"))
    elif isinstance(pm, Tabulated2D):
        _check_normalized(pm)
        try:
            z = _tabulated2d_transform(pm, gp[:, None], gd[None, :])
        except IntegrationError as e:
            raise IntegrationError(f"surface cell {divmod(e.index, gd.size)}: {e}",
                                   e.value, e.error_estimate) from e
    else:
        raise TypeError(f"unsupported joint density type {type(pm).__name__}")
    mag, phase = _polar(z)
    return [[CoherenceValue(*cell) for cell in zip(*row)]
            for row in zip(mag.tolist(), phase.tolist())]


def _surface_axis(density: SpectralDensity, delays: np.ndarray, axis: str) -> np.ndarray:
    try:
        return transforms(density, delays)
    except IntegrationError as e:
        raise IntegrationError(
            f"surface {axis} {e.index} (all cells): {e}",
            value=e.value, error_estimate=e.error_estimate) from e
