"""The quadrature engine's own tests (its layouts, moment sums, blocks,
cost, piece cap and error order, against direct Gauss-Legendre sums and
per-delay layouts), and the library's exact table transform against it."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrature_engine as engine
import window_quadrature
from quadrature_engine import IntegrationError
from test_coherence import _bits, _jittered_table
from triphoton.coherence import transforms
from triphoton.spectra import Gaussian, Lorentzian, SincSquared, Tabulated


def _per_knot_pieces(knots, delay):
    # the piece layout built by a Python loop over the knots: starts and half-widths
    widths = np.diff(knots)
    n_sub = np.maximum(1, np.ceil(np.abs(delay) * widths
                                  / engine._MAX_PHASE_PER_PIECE).astype(int))
    piece_lo = np.repeat(knots[:-1], n_sub) + np.concatenate(
        [w * np.arange(k) / k for w, k in zip(widths, n_sub)])
    return piece_lo, 0.5 * np.repeat(widths / n_sub, n_sub)


def _segmented_fourier_listcomp(f, knots, delay):
    # the per-knot layout under the moment sums; the array layout must
    # reproduce its nodes, and so its sums, bit for bit
    piece_lo, half = _per_knot_pieces(knots, delay)
    origin = 0.5 * float(knots[0]) + 0.5 * float(knots[-1])
    [z], [err] = engine._layout_sums(f, piece_lo, half, origin, np.array([delay]))
    return complex(z), float(err)


def _direct_gauss_legendre(f, knots, delay):
    # the same two rules on the same layout, one complex exp per node
    piece_lo, half = _per_knot_pieces(knots, delay)

    def rule(nodes_weights):
        x_ref, w_ref = nodes_weights
        x = piece_lo[:, None] + half[:, None] * (x_ref[None, :] + 1.0)
        w = half[:, None] * w_ref[None, :]
        vals = np.asarray(f(x)) * np.exp(-1j * x * delay)
        return complex(np.sum(w * vals))

    z_hi = rule(engine._GL_HI)
    z_lo = rule(engine._GL_LO)
    return z_hi, abs(z_hi - z_lo)


@pytest.mark.parametrize("rule, n", [("_GL_HI", 12), ("_GL_LO", 6)])
def test_gauss_legendre_literals_are_leggauss(rule, n):
    # the rules are written out so importing triphoton skips numpy.polynomial
    for got, want in zip(getattr(engine, rule), np.polynomial.legendre.leggauss(n),
                         strict=True):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestSegmentedFourierLayout:
    def test_matches_per_knot_layout_bit_for_bit(self):
        rng = np.random.default_rng(5)
        grid = np.cumsum(rng.uniform(0.5, 1.5, 61)) * 0.1
        grid -= grid[0] + 2.0
        vals = np.exp(-grid ** 2) * (1.0 + rng.uniform(0.0, 0.3, grid.size))
        density = Tabulated(grid, vals).normalize()
        widths = np.diff(density.grid)
        mixed = 1.6 / float(np.median(widths))  # splits only the wider pieces
        n_sub = np.ceil(mixed * widths / engine._MAX_PHASE_PER_PIECE)
        assert n_sub.min() == 1 and n_sub.max() > 1
        for delay in (0.0, -0.0, 0.3, mixed, -mixed, 3.7 * mixed, 2e4):
            z, err = engine._segmented_fourier(density.evaluate, density.grid,
                                                  np.array([delay]))
            assert ((z[0], err[0])
                    == _segmented_fourier_listcomp(density.evaluate, density.grid,
                                                   delay))


@st.composite
def _accuracy_cases(draw, kinds=("table", "mixed", "gaussian", "lorentzian", "sinc_squared")):
    # unit-mass densities at three scales: jittered tables of spacing ~0.1,
    # some off centre by 3 or 10, so |x * delay| reaches ~2e3 rad (the
    # direct sum rounds each node's phase, up to ~3e-17 |x * delay|, which
    # sets that reach); tables whose spacings run over three decades, so
    # pieces of h << s sit beside the widest; the analytic shapes on their
    # graded window
    scale = draw(st.sampled_from([1e-3, 1.0, 1e12]))
    kind = draw(st.sampled_from(kinds))
    if kind in ("table", "mixed"):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        n = draw(st.integers(2, 40))
        steps = (10.0 ** rng.uniform(-3.0, 0.0, n - 1) if kind == "mixed"
                 else rng.uniform(0.05, 0.15, n - 1))
        grid = np.concatenate([[0.0], np.cumsum(steps)])
        if kind == "table":
            grid += draw(st.sampled_from([0.0, 3.0, -10.0]))
        density = Tabulated(grid * scale, rng.uniform(0.1, 1.0, n)).normalize()
        f, knots = density.evaluate, density.grid
    else:
        shape = {"gaussian": Gaussian, "lorentzian": Lorentzian,
                 "sinc_squared": SincSquared}[kind]
        density = shape(draw(st.floats(0.5, 2.0)) * scale)
        knots = window_quadrature._window_knots(density.characteristic_width)
        f = density.evaluate  # centred on 0
    widths = np.diff(knots)
    # +-0.0; the widest interval split k ways at the 1.5-rad piece bound,
    # where the series argument delay * s peaks at 0.75; multiples of the
    # inverse median spacing
    boundary = 1.5 * draw(st.integers(1, 8)) / float(widths.max())
    fractions = draw(st.lists(st.floats(-9.0, 9.0), max_size=4))
    delays = [0.0, -0.0, boundary, -boundary] + [
        t / float(np.median(widths)) for t in fractions]
    return density, f, knots, np.array(delays)


class TestMomentSumAccuracy:
    @settings(max_examples=80, deadline=None)
    @given(_accuracy_cases())
    def test_matches_direct_gauss_legendre_sum(self, case):
        _, f, knots, delays = case
        z, err = engine._segmented_fourier(f, knots, delays)
        for k, delay in enumerate(delays.tolist()):
            z_direct, err_direct = _direct_gauss_legendre(f, knots, delay)
            assert z[k] == pytest.approx(z_direct, rel=0, abs=1e-13)
            assert err[k] == pytest.approx(err_direct, rel=0, abs=1e-13)


class TestTableTransformAgainstTheEngine:
    @settings(max_examples=120, deadline=None)
    @given(_accuracy_cases(kinds=("table", "mixed")))
    def test_matches_the_engine(self, case):
        # the library's closed form and the engine integrate the same
        # piecewise-linear interpolant, off centre and on mixed spacings, out
        # to |x * delay| ~ 2e3 rad; the closed form rounds each interval's
        # centre m and phase delay * m, by up to 2**-52 |x * delay| together,
        # where the engine takes its common phase exactly
        density, _, _, delays = case
        gap = np.abs(transforms(density, delays) - engine.transform(density, delays))
        reach = float(np.max(np.abs(density.grid))) * np.abs(delays)
        assert np.all(gap <= 2e-15 + 2.3e-16 * reach)


_moderate = st.floats(1e-100, 1e100).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(_moderate | st.sampled_from([0.0, -0.0]), _moderate)
def test_two_product_is_exact(a, b):
    # the common phase of a layout carries the product's rounding error
    p, e = engine._two_product(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


class _CountingNumpy:
    # numpy as the engine sees it, counting the elements sent to exp, cos and sin
    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("exp", "cos", "sin"):
            return attr

        def counted(x, *args, **kwargs):
            self.elements += np.size(x)
            return attr(x, *args, **kwargs)
        return counted


class TestQuadratureCost:
    def test_one_phase_per_piece_and_delay(self, monkeypatch):
        density = _jittered_table(7, 401)
        widths = np.diff(density.grid)
        delays = np.linspace(-8.0, 8.0, 201) / float(np.median(widths))
        counts = [np.maximum(1, np.ceil(abs(t) * widths / engine._MAX_PHASE_PER_PIECE))
                  for t in delays]
        layouts = {c.tobytes() for c in counts}
        proxy = _CountingNumpy()
        monkeypatch.setattr(engine, "np", proxy)
        engine.transform(density, delays)
        # a cos and a sin per piece and delay, plus at most 64 per layout
        assert proxy.elements <= 2 * sum(c.sum() for c in counts) + 64 * len(layouts)

    def test_memory_per_piece(self):
        density = _jittered_table(7, 401)
        widths = np.diff(density.grid)
        delay = engine._MAX_PHASE_PER_PIECE * 65000 / float(widths.sum())
        pieces = np.maximum(1, np.ceil(delay * widths / engine._MAX_PHASE_PER_PIECE)).sum()
        assert 65000 <= pieces <= 66000
        tracemalloc.start()
        try:
            engine._segmented_fourier(density.evaluate, density.grid, np.array([delay]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / pieces <= 840  # bytes, as the comment on _MAX_PIECES states

    def test_memory_bounded_by_the_block(self):
        # the delays share one layout of 400 pieces; their array passes run in
        # blocks of _BLOCK_CELLS delay x piece cells, so what grows with the
        # delay count is only each delay's output and bookkeeping
        density = _jittered_table(7, 401)
        delays = np.linspace(-1.0, 1.0, 10000) / float(np.median(np.diff(density.grid)))
        peaks = _peaks(lambda n: engine.transform(density, delays[:n]))
        per_delay = (peaks[10000] - peaks[5000]) / 5000
        assert per_delay <= 400  # bytes: a z, an error, a delay and their tuples
        assert peaks[5000] - 5000 * per_delay <= 8 * 8 * engine._BLOCK_CELLS

    def test_memory_per_delay(self):
        # the delays share one layout of 400 pieces; each keeps its position,
        # z, error and gathered delay in arrays, not in Python tuples (those
        # took about 260 bytes a delay)
        density = _jittered_table(7, 401)
        delays = np.linspace(-1.0, 1.0, 10000) / float(np.median(np.diff(density.grid)))
        peaks = _peaks(lambda n: engine.transform(density, delays[:n]))
        assert (peaks[10000] - peaks[5000]) / 5000 <= 128  # bytes


def _peaks(run):
    """Peak traced bytes of ``run(n)`` at 5000 and 10000 delays."""
    peaks = {}
    for n in (5000, 10000):
        tracemalloc.start()
        try:
            run(n)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


class TestOscillatorySafeguard:
    @pytest.mark.parametrize("density, delay", [
        (Tabulated([-0.5, 0.5], [1.0, 1.0]), 1e12),
        (Tabulated([-1e13, 1e13], [1.0, 1.0]), 1e300),  # the count overflows
        # mass on one knot: a rounding-noise width, one over it a huge delay
        (Tabulated([-0.499528127250639, 0.4995281272506391],
                   [0.3131155348796092, 0.0]), None),
    ])
    def test_piece_count_capped(self, density, delay):
        # the piece layout would need terabytes; it must fail by name instead
        density = density.normalize()
        delay = delay or 1.0 / density.characteristic_width
        with pytest.raises(IntegrationError, match=re.escape(f"at delay {delay!r} s ")):
            engine.transform(density, np.array([delay]))


def _quadrature_reference(density, delay):
    # the quadrature at one delay: the per-knot layout, then for infinite
    # support the oscillatory tail and the centre phase
    lo, hi = density.support()
    if not (math.isinf(lo) or math.isinf(hi)):
        return _segmented_fourier_listcomp(density.evaluate, density.grid, delay)[0]
    center = density.center
    knots = window_quadrature._window_knots(density.characteristic_width)
    z, _ = _segmented_fourier_listcomp(lambda u: density.evaluate(center + u), knots, delay)
    z += window_quadrature.oscillatory_tail(density, float(knots[-1]), delay)
    if center != 0.0:
        z *= complex(math.cos(center * delay), -math.sin(center * delay))
    return z


@st.composite
def _quadrature_cases(draw):
    scale = draw(st.sampled_from([1e-3, 1.0, 1e12]))
    kind = draw(st.sampled_from(["table", "gaussian", "lorentzian", "sinc_squared"]))
    if kind == "table":
        density = _jittered_table(draw(st.integers(0, 2 ** 32 - 1)),
                                  draw(st.integers(2, 40)))
        density = Tabulated(density.grid * scale, density.values / scale,
                            center_offset=draw(st.floats(-5.0, 5.0)) * scale)
        unit = 1.0 / float(np.median(np.diff(density.grid)))
    else:
        shape = {"gaussian": Gaussian, "lorentzian": Lorentzian,
                 "sinc_squared": SincSquared}[kind]
        density = shape(draw(st.floats(0.5, 2.0)) * scale,
                        center_offset=draw(st.sampled_from([0.0, 3.0, -40.0])) * scale)
        unit = 1.0 / density.characteristic_width
    # multiples of the inverse knot spacing or width that split the pieces
    # differently, signed, with repeats, +0.0 and -0.0
    steps = st.sampled_from([0.3, 1.0, 1.6, 3.7, 9.0]).flatmap(
        lambda m: st.floats(0.9 * m, 1.1 * m)).map(lambda t: t * unit)
    picked = draw(st.lists(st.tuples(steps, st.sampled_from([1.0, -1.0])),
                           min_size=1, max_size=5))
    delays = [t * sign for t, sign in picked]
    delays += draw(st.lists(st.sampled_from(delays), max_size=3)) + [0.0, -0.0]
    return density, np.array(draw(st.permutations(delays)))


class TestBatchedQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(_quadrature_cases())
    def test_equals_per_delay_quadrature_bit_for_bit(self, quadrature, case):
        density, delays = case
        z = quadrature(density, delays)
        assert z.tolist() == [_quadrature_reference(density, t) for t in delays.tolist()]

    @pytest.mark.parametrize("density", [_jittered_table(5), Gaussian(sigma=1.0),
                                         SincSquared(width=2.0, center_offset=7.0)])
    def test_one_evaluation_per_rule_and_layout(self, density, monkeypatch, quadrature):
        calls = []
        evaluate = type(density).evaluate
        monkeypatch.setattr(type(density), "evaluate",
                            lambda self, x: calls.append(np.shape(x)) or evaluate(self, x))
        if isinstance(density, Tabulated):
            knots, unit = density.grid, 1.0 / float(np.median(np.diff(density.grid)))
        else:
            knots = window_quadrature._window_knots(density.characteristic_width)
            unit = 1.0 / density.characteristic_width
        delays = np.array([0.0, 3.7, -0.0, 0.01, 3.7, -3.7, 9.0, 0.3, 9.0]) * unit
        layouts = {np.maximum(1, np.ceil(abs(t) * np.diff(knots)
                                         / engine._MAX_PHASE_PER_PIECE)).tobytes()
                   for t in delays}
        assert 3 <= len(layouts) < len(delays)
        quadrature(density, delays)
        assert len(calls) == 2 * len(layouts)


class TestDelayBlocks:
    # 40 knot intervals; 100 delay x piece cells make blocks of two delays
    density = _jittered_table(11, 41)

    @pytest.mark.parametrize("cells", [100, None])
    def test_blocked_sums_equal_lone_sums_bit_for_bit(self, cells, monkeypatch):
        if cells:
            monkeypatch.setattr(engine, "_BLOCK_CELLS", cells)
        knots = self.density.grid
        piece_lo, half = _per_knot_pieces(knots, 0.0)  # one piece per interval
        origin = 0.5 * float(knots[0]) + 0.5 * float(knots[-1])
        step = engine._BLOCK_CELLS // piece_lo.size
        assert step >= 2
        rng = np.random.default_rng(2)
        reach = engine._MAX_PHASE_PER_PIECE / float(np.diff(knots).max())
        delays = [0.0, -0.0] + rng.uniform(-reach, reach, 3 * step).tolist()
        assert len(delays) > 3 * step  # at least three blocks, the last one short
        sums = np.column_stack(engine._layout_sums(self.density.evaluate, piece_lo,
                                                   half, origin, np.array(delays)))
        lone = [np.column_stack(engine._layout_sums(self.density.evaluate, piece_lo, half,
                                                    origin, np.array([t])))[0]
                for t in delays]
        assert _bits(sums) == _bits(lone)

    def test_one_evaluation_per_rule_and_layout(self, monkeypatch):
        knots = self.density.grid
        unit = 1.0 / float(np.median(np.diff(knots)))
        delays = np.array([0.0, 0.3, -0.3, 3.7, 0.2, -3.7, 3.7, 0.1, 9.0, -9.0]) * unit
        z, err = engine._segmented_fourier(self.density.evaluate, knots, delays)
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 100)
        calls = []
        f = lambda x: calls.append(x.shape) or self.density.evaluate(x)  # noqa: E731
        z_blocked, err_blocked = engine._segmented_fourier(f, knots, delays)
        layouts = {np.maximum(1, np.ceil(abs(t) * np.diff(knots)
                                         / engine._MAX_PHASE_PER_PIECE)).tobytes()
                   for t in delays}
        assert len(layouts) == 3 and len(calls) == 2 * len(layouts)
        assert _bits(z_blocked) == _bits(z) and err_blocked.tolist() == err.tolist()

    def test_capped_delay_in_a_later_block_evaluates_nothing(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 100)
        calls = []
        delays = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 1e300, 0.6, 1e300])
        with pytest.raises(IntegrationError,
                           match=re.escape("at delay 1e+300 s needs ")) as info:
            engine._segmented_fourier(calls.append, self.density.grid, delays)
        assert info.value.index == 5 and calls == []


class _Stepped(Tabulated):
    # a jump at 0.5 on one knot interval [-1, 1]: a piece boundary only when
    # the interval is split four ways, so 2 < |delay| <= 3 converges and a
    # delay that leaves one piece (|delay| <= 0.75) does not
    def evaluate(self, x):
        return super().evaluate(x) * (1.0 + 0.5 * (np.asarray(x) > 0.5))


class TestQuadratureErrorOrder:
    density = _Stepped([-1.0, 1.0], [0.5, 0.5])
    capped = ("coherence quadrature at delay 1e+300 s needs 1.33e+300 pieces, "
              "more than the 262144 allowed")

    def _raised(self, delays):
        with pytest.raises(IntegrationError) as info:
            engine.transform(self.density, np.array(delays))
        return info.value

    def test_first_unresolved_delay_named(self):
        z, err = _segmented_fourier_listcomp(self.density.evaluate, self.density.grid, 0.3)
        assert err > 1e-8
        engine.transform(self.density, np.array([2.5]))  # four pieces: converges
        e = self._raised([2.5, 0.3, -0.3, 0.3])
        assert str(e) == f"coherence quadrature did not converge (estimated error {err:.3e})"
        assert e.index == 1

    def test_capped_delay_raised_before_any_sum(self):
        # the piece counts are checked first, so a cap wins over an earlier
        # delay that would not converge
        for delays in ([2.5, 1e300, 0.3], [2.5, 0.3, 1e300]):
            e = self._raised(delays)
            assert str(e) == self.capped and e.index == delays.index(1e300)

    def test_capped_first_delay_evaluates_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(self.density, "evaluate", calls.append)
        e = self._raised([1e300, 0.3, 2.5])
        assert str(e) == self.capped and e.index == 0 and calls == []
