import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrature_engine as engine
from quadrature_engine import IntegrationError
from triphoton import coherence, experiments, pathgeom, rates
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.coherence import gamma_pump
from triphoton.errors import CarrierPhaseOverflowError, InsufficientSamplingError
from triphoton.experiments import (ExtremumKind, SweepSpec, SweepTable,
                                   SweepVariable, category_i_spec,
                                   category_ii_spec, category_iii_specs,
                                   degenerate_central_frequencies,
                                   extract_dip_metrics, extract_dip_profile,
                                   extract_fringe_metrics, fringe_visibility_at,
                                   pump_coherence_length, run_sweep)
from triphoton.pathgeom import CentralFrequencies, ReducedParameters, SourceKind
from triphoton.rates import (AlternativeAmplitudes, RateResult, SourceModel,
                             rate_length)
from triphoton.spectra import (Gaussian, Lorentzian, Separable, SincSquared,
                               Tabulated, Tabulated2D)

AMPS = AlternativeAmplitudes.balanced(1.0)


def cpdc_source(pump=None, pm=None,
                centrals=CentralFrequencies(2.4e15, 1.2e15, 1.2e15)):
    pump = pump or Gaussian(sigma=1e12)
    pm = pm or Separable(Gaussian(sigma=2e12), Gaussian(sigma=3e12))
    return SourceModel.cpdc(pump, pm, centrals)


def pump_500nm(coherence_length):
    w_p0 = 2 * math.pi * SPEED_OF_LIGHT / 500e-9
    centrals = CentralFrequencies(w_p0 / 2, w_p0 / 4, w_p0 / 4)
    pump = Gaussian(sigma=SPEED_OF_LIGHT / coherence_length)
    return SourceModel.cpdc(pump, Separable(Gaussian(sigma=2e12),
                                            Gaussian(sigma=3e12)), centrals)


class TestRunSweep:
    def test_category_i_nine_points(self):
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 2 * math.pi, 9,
                         ReducedParameters(0.0, 0.0, 0.0, 0.0), cpdc_source(), AMPS)
        table = run_sweep(spec)
        assert len(table) == 9
        assert table.rates[0] == pytest.approx(2.0, abs=1e-12)
        assert table.rates[4] == pytest.approx(0.0, abs=1e-12)  # delta_phi = pi
        assert table.rates[8] == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.diff(table.values) > 0)

    def test_diagonal_sweep_peaks_at_origin(self):
        src = cpdc_source(centrals=degenerate_central_frequencies(
            SourceKind.CPDC, 1.2e15))
        width = SPEED_OF_LIGHT / 2e12
        spec = SweepSpec(SweepVariable.DIAGONAL, -3 * width, 3 * width, 61,
                         ReducedParameters(0.0, 0.0, 0.0, 0.0), src, AMPS)
        table = run_sweep(spec)
        mid = len(table) // 2
        assert table.rates[mid] == pytest.approx(2.0, abs=1e-9)
        assert np.argmax(table.rates) == mid

    def test_sweep_past_the_engines_piece_cap_matches_the_exact_transform(self):
        # the quadrature engine refused these delays (over 3e5 pieces at
        # 10 m); a triangle table is its own piecewise-linear interpolant,
        # so g' on the prime axis is exactly sinc^2(delay * 1e13 / 2)
        g = np.linspace(-1e13, 1e13, 9)
        tri = Tabulated(g, 1 - np.abs(g) / 1e13).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=1e11), Separable(tri, tri),
                               CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
        spec = SweepSpec(SweepVariable.DELTA_L_PRIME, -10.0, 10.0, 5,
                         ReducedParameters(0.0, 0.0, 0.0, 0.0), src, AMPS)
        with pytest.raises(IntegrationError, match="more than the 262144 allowed"):
            engine.transform(tri, np.array([10.0 / SPEED_OF_LIGHT]))
        assert_sweep_matches_rate_length(spec)
        u = np.linspace(-10.0, 10.0, 5) / SPEED_OF_LIGHT * 5e12
        exact = np.ones_like(u)
        exact[u != 0] = (np.sin(u[u != 0]) / u[u != 0]) ** 2
        assert np.abs(run_sweep(spec).gamma_prime_mag - exact).max() <= 1e-15

    def test_phase_sweep_computes_each_factor_once(self, monkeypatch):
        calls = []
        core = coherence.transforms
        spy = lambda *a, **k: calls.append(a[1]) or core(*a, **k)  # noqa: E731
        for module in (coherence, rates):
            monkeypatch.setattr(module, "transforms", spy)
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 2 * math.pi, 9,
                         ReducedParameters(1.3 * _L, -0.4 * _L, 0.7 * _L),
                         tabulated_source(SourceKind.TOPDC), AMPS)
        run_sweep(spec)
        assert len(calls) == 3  # pump, then both phase-matching axes
        assert all(np.size(delays) == 1 for delays in calls)

    def test_long_phase_sweep_computes_each_factor_once(self, monkeypatch):
        # 20,001 rows span five blocks: the factors at the sweep's fixed
        # delays are computed in the first block and kept for the others
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 2 * math.pi, 20001,
                         ReducedParameters(1.3 * _L, -0.4 * _L, 0.7 * _L),
                         tabulated_source(SourceKind.TOPDC), AMPS)
        assert spec.n_points > 4 * experiments._SWEEP_ROWS
        calls = []
        fourier = coherence._segmented_fourier
        monkeypatch.setattr(coherence, "_segmented_fourier", lambda grid, values, delays: (
            calls.append(delays) or fourier(grid, values, delays)))
        table = run_sweep(spec)
        assert len(calls) == 3  # pump, then both phase-matching axes
        assert all(np.size(delays) == 1 for delays in calls)
        monkeypatch.setattr(experiments, "_SWEEP_ROWS", spec.n_points)  # one block
        one_block = run_sweep(spec)
        for name in ("rates", "gamma_mag", "gamma_prime_mag", "cosine_argument",
                     "visibility_bound"):
            assert getattr(table, name).tobytes() == getattr(one_block, name).tobytes()

    @pytest.mark.parametrize("choice", [1, 2, 3])
    @pytest.mark.parametrize("variable", list(SweepVariable))
    def test_each_factor_is_computed_once(self, variable, choice, monkeypatch):
        # a factor whose delays the sweep leaves fixed is computed at one delay,
        # a swept one at every row in row order; either in one call
        calls = {}
        for name in ("transforms", "joint_transforms"):
            monkeypatch.setattr(rates, name, lambda density, *columns, _name=name,
                                _core=getattr(rates, name): calls.setdefault(
                                    _name, []).append(columns) or _core(density, *columns))
        scale = 1.0 if variable is SweepVariable.DELTA_PHI else _L
        spec = SweepSpec(variable, -0.8 * scale, 0.8 * scale, 9,
                         ReducedParameters(1.3 * _L, -0.4 * _L, 0.7 * _L, 0.5,
                                           topdc_choice=choice),
                         tabulated_source(SourceKind.TOPDC), AMPS)
        run_sweep(spec)
        values = np.linspace(spec.start, spec.stop, spec.n_points)
        dt, dt_prime, dt_dprime = (
            x / SPEED_OF_LIGHT for x in experiments._parameter_columns(spec, values)[:3])
        pm_swept = variable not in (SweepVariable.DELTA_PHI, SweepVariable.DELTA_L)
        for name, columns, swept in (
                ("transforms", (dt,), variable is SweepVariable.DELTA_L),
                ("joint_transforms", pathgeom._native_pm_delays(
                    SourceKind.TOPDC, choice, dt_prime, dt_dprime), pm_swept)):
            (got,) = calls[name]
            want = columns if swept else tuple(c[:1] for c in columns)
            assert [np.asarray(c).tobytes() for c in got] == [c.tobytes() for c in want]

    @pytest.mark.parametrize("n_points", [5.0, 5.5])
    def test_spec_rejects_non_integer_n_points(self, n_points):
        # before the check these built, then run_sweep failed inside np.linspace
        with pytest.raises(ValueError, match="^n_points must be an integer$"):
            SweepSpec(SweepVariable.DELTA_PHI, 0.0, 1.0, n_points,
                      ReducedParameters(0, 0, 0, 0), cpdc_source(), AMPS)
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 1.0, np.int64(5),
                         ReducedParameters(0, 0, 0, 0), cpdc_source(), AMPS)
        assert len(run_sweep(spec)) == 5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.DELTA_PHI, 0.0, 1.0, 2,
                      ReducedParameters(0, 0, 0, 0), cpdc_source(), AMPS)
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.DELTA_PHI, 1.0, 0.0, 9,
                      ReducedParameters(0, 0, 0, 0), cpdc_source(), AMPS)

    @pytest.mark.parametrize("start, stop, message", [
        (-math.inf, 1.0, "start must be finite, got -inf"),
        (math.nan, 1.0, "start must be finite, got nan"),
        (0.0, math.inf, "stop must be finite, got inf"),
        (-1.7e308, 1.7e308, "start and stop must be a finite distance apart"),
    ])
    def test_spec_rejects_non_finite_range(self, start, stop, message):
        # before the check these gave NaN phases, or NaN rows with a RuntimeWarning
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepSpec(SweepVariable.DELTA_PHI, start, stop, 9,
                      ReducedParameters(0, 0, 0, 0), cpdc_source(), AMPS)

    @pytest.mark.parametrize("variable, start, stop, fixed, end", [
        (SweepVariable.DELTA_PHI, 0.0, 1.0, (1e308, 0.0, 0.0, 0.0), "start"),
        (SweepVariable.DELTA_L, 0.0, 1e308, (0.0, 0.0, 0.0, 0.0), "stop"),
        (SweepVariable.DIAGONAL, -1e308, 0.0, (0.0, 5.0, 5.0, 0.0), "start"),
        # each term is finite, their sum is not
        (SweepVariable.DELTA_PHI, 0.0, 1.7e308, (7e300, 0.0, 0.0, 0.0), "stop"),
    ])
    def test_spec_rejects_overflowing_carrier_phase(self, variable, start, stop, fixed, end):
        # before the check these swept, writing NaN rates with RuntimeWarnings
        source = cpdc_source(centrals=CentralFrequencies(2.4e15, 1.0e15, 0.9e15))
        with pytest.raises(CarrierPhaseOverflowError,
                           match=f"^the carrier phase overflows at the sweep {end}: "):
            SweepSpec(variable, start, stop, 9, ReducedParameters(*fixed), source, AMPS)

    def test_gaussian_pump_decays_to_zero_past_squared_overflow(self):
        # sigma * tau = 1e12 rad/s * 1e151 m / c = 3.3e154, whose square is inf;
        # the carrier phase is finite, so the sweep runs and g is exactly 0
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 2 * math.pi, 9,
                         ReducedParameters(1e151, 0.0, 0.0, 0.0), cpdc_source(), AMPS)
        table = run_sweep(spec)
        assert np.all(table.gamma_mag == 0.0)
        assert np.all(table.rates == table.baseline)


_W = 1e13  # rad/s, spectral width scale of the property-test sources
_L = SPEED_OF_LIGHT / _W  # matching length scale (m)
_CENTRALS = {SourceKind.CPDC: CentralFrequencies(2.4e15, 1.3e15, 1.1e15),
             SourceKind.TOPDC: CentralFrequencies(1.1e15, 1.3e15, 0.9e15)}
_SWEPT = {SweepVariable.DELTA_PHI: ("delta_phi",),
          SweepVariable.DELTA_L: ("delta_l",),
          SweepVariable.DELTA_L_PRIME: ("delta_l_prime",),
          SweepVariable.DELTA_L_DPRIME: ("delta_l_dprime",),
          SweepVariable.DIAGONAL: ("delta_l_prime", "delta_l_dprime")}


def _two_peak_table(seed, width):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 1.5, 41))
    x = (x - x.mean()) * (8.0 / (x[-1] - x[0]))
    vals = np.exp(-(x - 1.0) ** 2) + 0.5 * np.exp(-2.0 * (x + 1.5) ** 2)
    return Tabulated(x * width, vals, center_offset=0.3 * width).normalize()


def analytic_source(kind):
    return SourceModel(kind, Gaussian(sigma=_W, center_offset=0.2 * _W),
                       Separable(Lorentzian(gamma=2 * _W),
                                 SincSquared(width=1.5 * _W)), _CENTRALS[kind])


def tabulated_source(kind):
    return SourceModel(kind, _two_peak_table(1, _W),
                       Separable(_two_peak_table(2, 2 * _W),
                                 _two_peak_table(3, 1.5 * _W)), _CENTRALS[kind])


def tabulated2d_source(kind):
    g = np.linspace(-8, 8, 161)
    x, y = g[:, None], g[None, :]
    pm = Tabulated2D(g * 2 * _W, g * 1.5 * _W,
                     np.exp(-(x * x - x * y + y * y) / 1.5)).normalize()
    return SourceModel(kind, _two_peak_table(1, _W), pm, _CENTRALS[kind])


SOURCES = {"analytic": analytic_source, "tabulated": tabulated_source,
           "tabulated2d": tabulated2d_source}


def assert_sweep_matches_rate_length(spec):
    expected = []
    for v in np.linspace(spec.start, spec.stop, spec.n_points):
        params = replace(spec.fixed, **dict.fromkeys(_SWEPT[spec.variable], float(v)))
        expected.append(rate_length(spec.source, params, spec.amps))
    table = run_sweep(spec)
    assert len(table) == len(expected)
    columns = (table.rates, table.gamma_mag, table.gamma_prime_mag,
               table.cosine_argument, table.visibility_bound)
    rows = [RateResult(*row, float(table.baseline))
            for row in zip(*(c.tolist() for c in columns))]
    for got, want in zip(rows, expected):
        assert got == want
        assert repr(got) == repr(want)  # signed zeros too


_lengths = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


class TestSweepMatchesRateLength:
    @settings(max_examples=100, deadline=None)
    @given(variable=st.sampled_from(list(SweepVariable)),
           labeling=st.sampled_from([(SourceKind.CPDC, 1), (SourceKind.TOPDC, 1),
                                     (SourceKind.TOPDC, 2), (SourceKind.TOPDC, 3)]),
           source=st.sampled_from(list(SOURCES)),
           fixed=st.tuples(_lengths, _lengths, _lengths, st.floats(0.0, 6.3)),
           symmetric=st.booleans(), lo=st.floats(-3.0, 2.5),
           span=st.floats(0.1, 3.0), half_points=st.integers(1, 4),
           amps=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0),
                          st.floats(0.1, 3.0)),
           rows=st.sampled_from([experiments._SWEEP_ROWS, 2]))  # 2: up to 5 blocks
    def test_every_row_equals_rate_length(self, variable, labeling, source, fixed,
                                          symmetric, lo, span, half_points, amps, rows):
        kind, choice = labeling
        scale = 1.0 if variable is SweepVariable.DELTA_PHI else _L
        start, stop = (-span, span) if symmetric else (lo, lo + span)
        dl, dlp, dldp, dphi = fixed
        params = ReducedParameters(dl * _L, dlp * _L, dldp * _L, dphi,
                                   topdc_choice=choice)
        spec = SweepSpec(variable, start * scale, stop * scale, 2 * half_points + 1,
                         params, SOURCES[source](kind), AlternativeAmplitudes(*amps))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_SWEEP_ROWS", rows)
            assert_sweep_matches_rate_length(spec)

    @pytest.mark.parametrize("choice", [2, 3])
    def test_cpdc_rejects_topdc_choices_before_any_row(self, choice):
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 1.0, 3,
                         ReducedParameters(0.0, 0.0, 0.0, topdc_choice=choice),
                         analytic_source(SourceKind.CPDC), AMPS)
        with pytest.raises(ValueError, match="CPDC"):
            run_sweep(spec)

    @pytest.mark.parametrize("choice", [1, 2, 3])
    @pytest.mark.parametrize("variable", list(SweepVariable))
    def test_zero_crossing_scans(self, variable, choice):
        # choices 2 and 3 negate a zero delay into -0.0; a fixed column's
        # constancy test compares +0.0 and -0.0 equal, so the origin row must
        # still match
        spec = SweepSpec(variable, -2.0 * _L, 2.0 * _L, 9,
                         ReducedParameters(0.0, 0.0, 0.0, 0.5, topdc_choice=choice),
                         tabulated_source(SourceKind.TOPDC), AMPS)
        assert 0.0 in np.linspace(spec.start, spec.stop, spec.n_points)
        assert_sweep_matches_rate_length(spec)


class TestCategoryI:
    def test_visibility_is_unity(self):
        table = run_sweep(category_i_spec(cpdc_source(), AMPS))
        metrics = extract_fringe_metrics(table)
        assert abs(metrics.visibility - 1.0) <= 1e-9
        assert metrics.period == pytest.approx(2 * math.pi, rel=1e-9)
        assert math.isinf(metrics.envelope_halfwidth)

    def test_table_independent_of_densities(self):
        # every delay is zero, so the coherence factors drop out exactly
        # for shapes with closed-form transforms
        sources = [
            cpdc_source(),
            cpdc_source(pump=Lorentzian(gamma=5e11),
                        pm=Separable(SincSquared(width=1e12),
                                     Lorentzian(gamma=2e12))),
        ]
        tables = [run_sweep(category_i_spec(s, AMPS)) for s in sources]
        assert np.max(np.abs(tables[0].rates - tables[1].rates)) <= 1e-12


class TestCategoryII:
    def test_reduces_to_pump_coherence_times_cosine(self):
        src = cpdc_source()
        spec = category_ii_spec(src, AMPS, coherence_lengths=1.0)
        table = run_sweep(spec)
        k_p0 = src.centrals.omega_p0 / SPEED_OF_LIGHT
        for x, rate, gp_mag in zip(table.values, table.rates, table.gamma_prime_mag):
            g = gamma_pump(src.pump, x / SPEED_OF_LIGHT)
            expected = 1.0 + g.magnitude * math.cos(k_p0 * x)
            assert rate == pytest.approx(expected, abs=1e-12)
            assert gp_mag == pytest.approx(1.0, abs=1e-12)

    def test_fringe_period_and_envelope(self):
        lc = 10e-6
        table = run_sweep(category_ii_spec(pump_500nm(lc), AMPS,
                                           coherence_lengths=3.1))
        metrics = extract_fringe_metrics(table)
        assert abs(metrics.period - 500e-9) <= 0.5e-9
        assert metrics.envelope_halfwidth == pytest.approx(
            math.sqrt(2.0) * lc, rel=0.02)

    def test_visibility_at_three_coherence_lengths(self):
        lc = 20e-6
        src = pump_500nm(lc)
        assert pump_coherence_length(src) == pytest.approx(lc)
        table = run_sweep(category_ii_spec(src, AMPS, coherence_lengths=3.1))
        metrics = extract_fringe_metrics(table)
        vis = fringe_visibility_at(table, 3 * lc, metrics.period)
        assert vis < 0.012

    @pytest.mark.parametrize("offset", [-3e11, 3e11])
    def test_offset_pump_is_sampled_for_extraction(self, offset):
        # g's phase is -offset * delay, which moves the fringe carrier off
        # the pump's central frequency; the preset must still sample more
        # than the extractor's 16 points per fringe period
        centrals = CentralFrequencies.from_wavelengths_nm(532, 1064, 1064)
        src = cpdc_source(pump=Gaussian(sigma=2e12, center_offset=offset),
                          centrals=centrals)
        metrics = extract_fringe_metrics(run_sweep(category_ii_spec(src, AMPS)))
        fringe = 2 * math.pi * SPEED_OF_LIGHT / (centrals.omega_p0 - offset)
        assert metrics.period == pytest.approx(fringe, rel=1e-6)


class TestCategoryIII:
    def setup_method(self):
        self.sigma_prime = 2e12
        self.src = SourceModel.cpdc(
            Gaussian(sigma=1e12),
            Separable(Gaussian(sigma=self.sigma_prime), Gaussian(sigma=3e12)),
            degenerate_central_frequencies(SourceKind.CPDC, 1.2e15))

    def test_dip_at_pi(self):
        sp, sd = category_iii_specs(self.src, AMPS, math.pi)
        tp, td = run_sweep(sp), run_sweep(sd)
        metrics = extract_dip_metrics(tp, td)
        assert metrics.extremum_kind is ExtremumKind.DIP
        assert metrics.depth == pytest.approx(1.0, abs=1e-9)
        assert tp.rates[len(tp) // 2] == pytest.approx(0.0, abs=1e-9)
        expected = SPEED_OF_LIGHT * 2 * math.sqrt(2 * math.log(2)) / self.sigma_prime
        assert metrics.fwhm_prime == pytest.approx(expected, rel=0.01)
        assert not metrics.not_monotone

    def test_hump_at_zero(self):
        sp, _ = category_iii_specs(self.src, AMPS, 0.0)
        profile = extract_dip_profile(run_sweep(sp))
        assert profile.extremum_kind is ExtremumKind.HUMP
        assert profile.depth == pytest.approx(1.0, abs=1e-9)

    def test_axis_widths_are_independent(self):
        # doubling the prime-axis spectral width must not move the
        # double-prime FWHM
        sp1, sd1 = category_iii_specs(self.src, AMPS, math.pi)
        src2 = SourceModel.cpdc(
            self.src.pump,
            Separable(Gaussian(sigma=2 * self.sigma_prime), Gaussian(sigma=3e12)),
            self.src.centrals)
        _, sd2 = category_iii_specs(src2, AMPS, math.pi)
        f1 = extract_dip_metrics(run_sweep(sp1), run_sweep(sd1)).fwhm_dprime
        f2 = extract_dip_profile(run_sweep(sd2)).fwhm
        assert abs(f1 - f2) <= 1e-6 * f1

    def test_tabulated2d_scans_reach_half_depth(self):
        # a correlated table: joint_widths gives its grid half-spans (8 sigma),
        # which kept the scans inside the dip
        rho, s1, s2 = 0.5, self.sigma_prime, 3e12
        g = np.linspace(-8, 8, 161)
        x, y = g[:, None], g[None, :]
        pm = Tabulated2D(g * s1, g * s2, np.exp(-(x * x - 2 * rho * x * y + y * y)
                                                / (2 * (1 - rho * rho)))).normalize()
        src = SourceModel.cpdc(self.src.pump, pm, self.src.centrals)
        sp, sd = category_iii_specs(src, AMPS, math.pi)
        metrics = extract_dip_metrics(run_sweep(sp), run_sweep(sd))
        for fwhm, sigma in ((metrics.fwhm_prime, s1), (metrics.fwhm_dprime, s2)):
            expected = SPEED_OF_LIGHT * 2 * math.sqrt(2 * math.log(2)) / sigma
            assert fwhm == pytest.approx(expected, rel=0.01)

    def test_mismatched_kinds_rejected(self):
        sp, _ = category_iii_specs(self.src, AMPS, math.pi)
        _, sd = category_iii_specs(self.src, AMPS, 0.0)
        with pytest.raises(ValueError, match="extremum kind"):
            extract_dip_metrics(run_sweep(sp), run_sweep(sd))


def synthetic_table(x, rates, baseline=1.0, variable=SweepVariable.DELTA_L_PRIME):
    ones = np.ones(len(rates))
    return SweepTable(variable=variable, values=np.asarray(x, dtype=float),
                      rates=np.asarray(rates, dtype=float), gamma_mag=ones,
                      gamma_prime_mag=ones, cosine_argument=np.zeros(len(rates)),
                      visibility_bound=ones, baseline=baseline)


class TestExtractionDiagnostics:
    def test_insufficient_periods(self):
        x = np.linspace(0, 2 * math.pi, 64)  # single fringe period
        table = synthetic_table(x, 1 + np.cos(x), variable=SweepVariable.DELTA_PHI)
        with pytest.raises(InsufficientSamplingError):
            extract_fringe_metrics(table)

    def test_insufficient_points_per_period(self):
        x = np.linspace(0, 8 * math.pi, 40)  # 4 periods at 10 points each
        table = synthetic_table(x, 1 + np.cos(x), variable=SweepVariable.DELTA_PHI)
        with pytest.raises(InsufficientSamplingError):
            extract_fringe_metrics(table)

    def test_dip_scan_missing_half_level(self):
        # scan narrower than the half width: no crossing to find
        x = np.linspace(-0.2, 0.2, 41)
        table = synthetic_table(x, 1 - np.exp(-x ** 2 / 8))
        with pytest.raises(InsufficientSamplingError):
            extract_dip_profile(table)

    def test_dip_scan_must_contain_origin(self):
        x = np.linspace(0.5, 4.0, 41)
        table = synthetic_table(x, 1 - 0.5 * np.exp(-x ** 2))
        with pytest.raises(ValueError, match="origin"):
            extract_dip_profile(table)

    def test_side_lobes_flagged(self):
        x = np.linspace(-8, 8, 401)
        profile = np.abs(np.sinc(x))  # 21.7% first side lobe
        table = synthetic_table(x, 1 + profile)
        p = extract_dip_profile(table)
        assert p.extremum_kind is ExtremumKind.HUMP
        assert p.not_monotone

    def test_side_lobes_below_threshold_not_flagged(self):
        x = np.linspace(-8, 8, 401)
        profile = np.sinc(x) ** 2  # 4.7% side lobe, under the 5% threshold
        table = synthetic_table(x, 1 + profile)
        assert not extract_dip_profile(table).not_monotone

    def test_clean_gaussian_not_flagged(self):
        x = np.linspace(-8, 8, 401)
        table = synthetic_table(x, 1 - np.exp(-x ** 2 / 2))
        p = extract_dip_profile(table)
        assert p.extremum_kind is ExtremumKind.DIP
        assert not p.not_monotone
        assert p.fwhm == pytest.approx(2 * math.sqrt(2 * math.log(2)), rel=1e-3)



# Loop-based extraction helpers as they were before the array rewrite, kept
# as the reference the array versions must match exactly, exceptions included.

def _ref_zero_crossings(x, s):
    out = []
    idx = np.nonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0)[0]
    x0, x1 = x[idx], x[idx + 1]
    s0, s1 = s[idx], s[idx + 1]
    out.extend(x0 - s0 * (x1 - x0) / (s1 - s0))
    zeros = np.nonzero(s == 0.0)[0]
    i = 0
    while i < zeros.size:
        j = i
        while j + 1 < zeros.size and zeros[j + 1] == zeros[j] + 1:
            j += 1
        a, b = zeros[i], zeros[j]
        if a > 0 and b < s.size - 1 and s[a - 1] * s[b + 1] < 0:
            out.append(0.5 * (x[a] + x[b]))
        i = j + 1
    return np.sort(np.asarray(out))


def _ref_fringe_visibility_at(table, value, period):
    x, y = table.values, table.rates
    sel = (x >= value - period / 2) & (x <= value + period / 2)
    if np.count_nonzero(sel) < 4:
        raise InsufficientSamplingError(
            f"fewer than 4 samples in the period window around {value!r}")
    hi, lo = float(np.max(y[sel])), float(np.min(y[sel]))
    return (hi - lo) / (hi + lo)


def _ref_envelope_halfwidth(x, y, period):
    centers, vis = [], []
    left = x[0]
    while left + period <= x[-1] + 1e-12 * period:
        sel = (x >= left) & (x <= left + period)
        if np.count_nonzero(sel) >= 4:
            hi, lo = float(np.max(y[sel])), float(np.min(y[sel]))
            if hi + lo > 0:
                centers.append(left + period / 2)
                vis.append((hi - lo) / (hi + lo))
        left += period
    if len(vis) < 2:
        return math.inf
    v0 = vis[0]
    target = v0 / math.e
    for i in range(1, len(vis)):
        if vis[i] < target:
            f = (vis[i - 1] - target) / (vis[i - 1] - vis[i])
            return float(centers[i - 1] + f * (centers[i] - centers[i - 1]))
    return math.inf


def _ref_extract_dip_profile(table):
    x, y, baseline = table.values, table.rates, table.baseline
    i0 = int(np.argmin(np.abs(x)))
    scale = max(abs(x[0]), abs(x[-1]))
    if abs(x[i0]) > 1e-9 * scale:
        raise ValueError("asymmetry scan must contain the origin")
    r0 = float(y[i0])
    depth_abs = abs(r0 - baseline)
    if depth_abs <= 1e-12 * baseline:
        raise ValueError("no extremum at the origin (flat profile)")
    kind = ExtremumKind.DIP if r0 < baseline else ExtremumKind.HUMP
    depth = depth_abs / baseline

    half_level = baseline + (r0 - baseline) / 2.0

    def crossing(direction):
        i = i0
        while 0 <= i + direction < len(x):
            j = i + direction
            if (y[i] - half_level) * (y[j] - half_level) <= 0:
                if y[j] == y[i]:
                    return float(x[j])
                f = (half_level - y[i]) / (y[j] - y[i])
                return float(x[i] + f * (x[j] - x[i]))
            i = j
        raise InsufficientSamplingError(
            "scan does not reach the half-depth level on "
            f"the {'right' if direction > 0 else 'left'} side")

    fwhm = crossing(+1) - crossing(-1)

    excursion = np.abs(y - baseline)
    threshold = 0.05 * depth_abs
    not_monotone = False
    for direction in (+1, -1):
        i = i0
        while 0 <= i + direction < len(x) and excursion[i] > threshold:
            i += direction
        if excursion[i] > threshold:
            not_monotone = True
            continue
        j = i + direction
        while 0 <= j < len(x):
            if excursion[j] > threshold:
                not_monotone = True
                break
            j += direction
    return experiments.DipProfile(extremum_kind=kind, depth=depth, fwhm=float(fwhm),
                                  not_monotone=not_monotone)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert got == want
        assert repr(got) == repr(want)  # types and signed zeros too


@st.composite
def _scans(draw, origin=False):
    """Ascending samples (uniform, linspace or jittered; steps exact in
    binary or not) with rounded rates that tie, repeat and hit zero: random
    levels, decaying fringes or, with ``origin``, a dip or hump there."""
    n = draw(st.integers(4, 120))
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 0.3]))
    layout = draw(st.sampled_from(["uniform", "linspace", "jittered"]))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1)) \
        if layout == "jittered" else [1] * (n - 1)
    rel = step * np.concatenate([[0], np.cumsum(gaps)])
    start = -rel[draw(st.integers(0, n - 1))] if origin \
        else step * draw(st.integers(-40, 40))
    x = np.linspace(start, start + rel[-1], n) if layout == "linspace" \
        else start + rel
    digits = draw(st.integers(0, 3))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        return x, np.round(np.array(levels, dtype=float) / 10.0, digits)
    length = step * draw(st.integers(1, n))
    vis = draw(st.floats(0.0, 1.0))
    if origin:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        profile = draw(st.sampled_from([lambda u: np.exp(-u * u), np.sinc,
                                        lambda u: np.sinc(u) ** 2]))
        return x, np.round(1.0 + sign * vis * profile(x / length), digits)
    period = step * draw(st.integers(3, 24))
    phase = draw(st.floats(0.0, 6.3))
    fringes = np.exp(-((x - x[0]) / length) ** 2) * np.cos(2 * math.pi * x / period
                                                          + phase)
    return x, np.round(1.0 + vis * fringes, digits)


class TestExtractionMatchesLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(scan=_scans(), shift=st.integers(0, 119))
    def test_zero_crossings(self, scan, shift):
        x, y = scan
        s = y - y[shift % y.size]  # at least one exact zero
        assert_same_outcome(experiments._zero_crossings(x, s),
                            _ref_zero_crossings(x, s))

    @settings(max_examples=200, deadline=None)
    @given(scan=_scans(), samples=st.integers(1, 30), at=st.integers(0, 119),
           on_sample=st.booleans(), nudge=st.floats(-0.5, 0.5))
    def test_fringe_visibility_at(self, scan, samples, at, on_sample, nudge):
        x, y = scan
        step = (x[-1] - x[0]) / (x.size - 1)
        period = step * (samples if on_sample else samples + nudge)
        value = x[at % x.size] + (period / 2 if on_sample else nudge * step)
        table = synthetic_table(x, y, variable=SweepVariable.DELTA_L)
        assert_same_outcome(_outcome(fringe_visibility_at, table, value, period),
                            _outcome(_ref_fringe_visibility_at, table, value, period))

    @settings(max_examples=200, deadline=None)
    @given(scan=_scans(), samples=st.integers(3, 40), on_sample=st.booleans(),
           nudge=st.floats(-0.5, 0.5))
    def test_envelope_halfwidth(self, scan, samples, on_sample, nudge):
        x, y = scan
        step = (x[-1] - x[0]) / (x.size - 1)
        period = step * (samples if on_sample else samples + nudge)
        assert_same_outcome(_outcome(experiments._envelope_halfwidth, x, y, period),
                            _outcome(_ref_envelope_halfwidth, x, y, period))

    @settings(max_examples=200, deadline=None)
    @given(scan=_scans(origin=True),
           baseline=st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0]))
    def test_extract_dip_profile(self, scan, baseline):
        x, y = scan
        table = synthetic_table(x, y, baseline=baseline)
        assert_same_outcome(_outcome(extract_dip_profile, table),
                            _outcome(_ref_extract_dip_profile, table))


def test_degenerate_central_frequencies():
    f = degenerate_central_frequencies(SourceKind.CPDC, 1.0e15)
    assert (f.omega_a0, f.omega_b0, f.omega_c0) == (2.0e15, 1.0e15, 1.0e15)
    f = degenerate_central_frequencies(SourceKind.TOPDC, 1.0e15)
    assert (f.omega_a0, f.omega_b0, f.omega_c0) == (1.0e15, 1.0e15, 1.0e15)
