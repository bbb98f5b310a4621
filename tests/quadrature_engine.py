"""The composite Gauss-Legendre engine: the tests' quadrature reference.

The library transforms every density in closed form: an analytic shape by
its own formula, a table as its piecewise-linear interpolant. This engine,
which tables took before, integrates ``f(x) exp(-i x delay)`` numerically
and stays as an independent reference for those closed forms (acceptance
criterion 7); :mod:`window_quadrature` wraps it in a graded window for the
analytic shapes.

It integrates over knots, with pieces that break at every knot and never
span more than 1.5 rad of oscillation, so each piece is polynomially smooth
no matter how large the delay gets. A lower-order rule on the same pieces
gives the error estimate. Delays with the same piece counts share one layout
and one density evaluation per rule; since no count falls as ``|delay|``
grows, equal total counts mean equal layouts, so sorting the totals groups
the delays.

Each layout's rules are reduced once to moments about the piece centres,
so a delay costs one phase per piece rather than one per node: a piece of
centre c sums as ``exp(-i c delay)`` times a power series in
``-i delay s``, s the layout's widest half-width. Since ``|delay| s`` is
at most 0.75, 20 terms leave a remainder below ``0.75**20 / 20!`` (about
1e-21) of the mass. The phase of the layout's midpoint is applied exactly
(Dekker's product), so tables far off centre lose no digits to it.
"""

import math

import numpy as np

# Acceptable estimated error (absolute, relative to max(1, |value|)).
_QUAD_ACCEPT = 1e-8


class IntegrationError(RuntimeError):
    """A delay needs more pieces than the cap, or a sum failed its accuracy
    target; ``index`` is the position of the first such delay."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


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
# reach 8e4 pieces).
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


def _accept(z: np.ndarray, err: np.ndarray) -> np.ndarray:
    """``z``, unless an error estimate exceeds ``_QUAD_ACCEPT``: then the first
    such delay raises, with its ``index``."""
    # fmax and hypot as Python's max and abs
    bad = np.flatnonzero(err > _QUAD_ACCEPT * np.fmax(1.0, np.hypot(z.real, z.imag)))
    if bad.size:
        k = int(bad[0])
        raise IntegrationError(
            f"coherence quadrature did not converge (estimated error {err[k]:.3e})", index=k)
    return z


def transform(density, delays: np.ndarray) -> np.ndarray:
    """A table's Fourier integrals at the 1D float array ``delays``, over its
    exact support with pieces breaking at its knots."""
    return _accept(*_segmented_fourier(density.evaluate, density.grid, delays))
