import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphoton import coherence
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.coherence import gamma_pump
from triphoton.errors import InsufficientSamplingError, IntegrationError
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

    def test_sweep_aborts_with_row_context(self):
        # a coarse tabulated joint density cannot resolve large asymmetry
        # delays; the sweep must abort naming the failing row
        g = np.linspace(-1e12, 1e12, 9)
        pm = Tabulated2D(
            g, g, np.outer(1 - np.abs(g) / 1e12, 1 - np.abs(g) / 1e12)).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=1e11), pm,
                               CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
        spec = SweepSpec(SweepVariable.DELTA_L_PRIME, -10.0, 10.0, 5,
                         ReducedParameters(0.0, 0.0, 0.0, 0.0), src, AMPS)
        with pytest.raises(Exception, match="sweep row 0"):
            run_sweep(spec)

    def test_first_failing_row_is_reported(self):
        # the memoized factors must fail at the row rate_length fails at
        # first, here past row 0 since the zero delay is always resolved
        g = np.linspace(-1e12, 1e12, 9)
        pm = Tabulated2D(
            g, g, np.outer(1 - np.abs(g) / 1e12, 1 - np.abs(g) / 1e12)).normalize()
        src = SourceModel.cpdc(Gaussian(sigma=1e11), pm,
                               CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
        spec = SweepSpec(SweepVariable.DELTA_L_PRIME, 0.0, 1e-4, 9,
                         ReducedParameters(0.0, 0.0, 0.0, 0.0), src, AMPS)
        expected = _rows_by_rate_length(spec)
        k = len(expected)
        assert 0 < k < spec.n_points
        with pytest.raises(IntegrationError, match=rf"^sweep row {k} \("):
            run_sweep(spec)

    def test_phase_sweep_computes_each_factor_once(self, monkeypatch):
        calls = []
        transform = coherence.transform_1d
        monkeypatch.setattr(coherence, "transform_1d",
                            lambda *a, **k: calls.append(a[1]) or transform(*a, **k))
        spec = SweepSpec(SweepVariable.DELTA_PHI, 0.0, 2 * math.pi, 9,
                         ReducedParameters(1.3 * _L, -0.4 * _L, 0.7 * _L),
                         tabulated_source(SourceKind.TOPDC), AMPS)
        run_sweep(spec)
        assert len(calls) == 3  # pump, then both phase-matching axes

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


def _rows_by_rate_length(spec):
    """rate_length on each row's parameters, up to the first failing row."""
    rows = []
    for v in np.linspace(spec.start, spec.stop, spec.n_points):
        params = replace(spec.fixed, **dict.fromkeys(_SWEPT[spec.variable], float(v)))
        try:
            rows.append(rate_length(spec.source, params, spec.amps))
        except IntegrationError:
            break
    return rows


def assert_sweep_matches_rate_length(spec):
    expected = _rows_by_rate_length(spec)
    if len(expected) < spec.n_points:
        with pytest.raises(IntegrationError, match=rf"^sweep row {len(expected)} \("):
            run_sweep(spec)
        return
    table = run_sweep(spec)
    assert len(table) == len(expected)
    for got, want in zip(table.results, expected):
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
                          st.floats(0.1, 3.0)))
    def test_every_row_equals_rate_length(self, variable, labeling, source, fixed,
                                          symmetric, lo, span, half_points, amps):
        kind, choice = labeling
        scale = 1.0 if variable is SweepVariable.DELTA_PHI else _L
        start, stop = (-span, span) if symmetric else (lo, lo + span)
        dl, dlp, dldp, dphi = fixed
        params = ReducedParameters(dl * _L, dlp * _L, dldp * _L, dphi,
                                   topdc_choice=choice)
        spec = SweepSpec(variable, start * scale, stop * scale, 2 * half_points + 1,
                         params, SOURCES[source](kind), AlternativeAmplitudes(*amps))
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
        # choices 2 and 3 negate a zero delay into -0.0; the memo keys
        # compare +0.0 and -0.0 equal, so the origin row must still match
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
        for x, r in zip(table.values, table.results):
            g = gamma_pump(src.pump, x / SPEED_OF_LIGHT)
            expected = 1.0 + g.magnitude * math.cos(k_p0 * x)
            assert r.rate == pytest.approx(expected, abs=1e-12)
            assert r.gamma_prime_mag == pytest.approx(1.0, abs=1e-12)

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


def test_results_are_the_columns_row_by_row():
    table = run_sweep(SweepSpec(SweepVariable.DELTA_L_PRIME, -2.0 * _L, 2.0 * _L, 9,
                                ReducedParameters(0.4 * _L, 0.0, -0.3 * _L, 0.5),
                                analytic_source(SourceKind.TOPDC), AMPS))
    columns = (table.rates, table.gamma_mag, table.gamma_prime_mag,
               table.cosine_argument, table.visibility_bound)
    assert len(table.results) == len(table) == 9
    for i, r in enumerate(table.results):
        want = RateResult(*(float(c[i]) for c in columns), float(table.baseline))
        assert r == want
        assert repr(r) == repr(want)
        assert all(type(f) is float for f in (r.rate, r.gamma_mag, r.gamma_prime_mag,
                                              r.cosine_argument, r.visibility_bound,
                                              r.baseline))


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


def test_degenerate_central_frequencies():
    f = degenerate_central_frequencies(SourceKind.CPDC, 1.0e15)
    assert (f.omega_a0, f.omega_b0, f.omega_c0) == (2.0e15, 1.0e15, 1.0e15)
    f = degenerate_central_frequencies(SourceKind.TOPDC, 1.0e15)
    assert (f.omega_a0, f.omega_b0, f.omega_c0) == (1.0e15, 1.0e15, 1.0e15)
