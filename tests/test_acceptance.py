"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them) and enforcing its
stated tolerance and runtime budget.
"""

import math
import random
import time

import numpy as np

from triphoton.coherence import DelayTriple, gamma_pump, transform_1d
from triphoton.constants import SPEED_OF_LIGHT
from triphoton.experiments import (AlternativeAmplitudes, ExtremumKind,
                                   category_i_spec, category_ii_spec,
                                   category_iii_specs,
                                   degenerate_central_frequencies,
                                   extract_dip_metrics, extract_fringe_metrics,
                                   fringe_visibility_at, run_sweep)
from triphoton.oracle import (INTERFERENCE_SCALE, LinearShift, OracleConfig,
                              factorization_error_sweep,
                              factorized_interference_term,
                              interference_term_3d, max_error_by_ratio)
from triphoton.pathgeom import (CentralFrequencies, PathConfiguration,
                                SourceKind, cpdc_freq_inverse,
                                cpdc_freq_transform, reduce_cpdc, reduce_topdc,
                                topdc_freq_inverse, topdc_freq_transform)
from triphoton.rates import SourceModel, rate_length
from triphoton.spectra import Gaussian, Lorentzian, Separable, SincSquared

AMPS = AlternativeAmplitudes.balanced(1.0)

_LENGTHS = ("l_a1", "l_b1", "l_c1", "l_p1", "l_a2", "l_b2", "l_c2", "l_p2")
_PHASES = ("phi_a1", "phi_b1", "phi_c1", "phi_p1",
           "phi_a2", "phi_b2", "phi_c2", "phi_p2")


def _random_config(rng, length_scale):
    return PathConfiguration(
        **{k: rng.uniform(0.0, length_scale) for k in _LENGTHS},
        **{k: rng.uniform(-math.pi, math.pi) for k in _PHASES})


def _report(num, text, elapsed, budget):
    print(f"PASS criterion {num}: {text} ({elapsed:.2f} s, budget {budget:.0f} s)")


def test_criterion_1_category_i_fringe():
    started = time.perf_counter()
    source = SourceModel.cpdc(
        Gaussian(sigma=1e12),
        Separable(Gaussian(sigma=2e12), Gaussian(sigma=3e12)),
        CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
    table = run_sweep(category_i_spec(source, AMPS))
    # pointwise cosine law with C = 1
    for phi, rate in zip(table.values, table.rates):
        assert abs(rate - (1.0 + math.cos(phi))) <= 1e-9
    metrics = extract_fringe_metrics(table)
    assert abs(metrics.visibility - 1.0) <= 1e-9
    # the ideal visibility bounds the reported experimental value from above
    assert metrics.visibility > 0.927 + 0.046
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"phase fringe visibility {metrics.visibility:.12f}", elapsed, 1)


def test_criterion_2_category_ii_period_and_envelope():
    started = time.perf_counter()
    lam_p0 = 500e-9
    w_p0 = 2 * math.pi * SPEED_OF_LIGHT / lam_p0
    coherence_length = 20e-6
    source = SourceModel.cpdc(
        Gaussian(sigma=SPEED_OF_LIGHT / coherence_length),
        Separable(Gaussian(sigma=2e12), Gaussian(sigma=3e12)),
        CentralFrequencies(w_p0 / 2, w_p0 / 4, w_p0 / 4))
    table = run_sweep(category_ii_spec(source, AMPS, coherence_lengths=3.1))
    metrics = extract_fringe_metrics(table)
    assert abs(metrics.period - lam_p0) <= 0.5e-9
    vis_3lc = fringe_visibility_at(table, 3 * coherence_length, metrics.period)
    assert vis_3lc < 0.012  # Gaussian envelope exp(-4.5) ~ 0.0111
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, f"period {metrics.period * 1e9:.3f} nm, "
               f"visibility@3Lc {vis_3lc:.4f}", elapsed, 5)


def test_criterion_3_category_iii_dip_and_hump():
    started = time.perf_counter()
    sigma_prime = 2e12
    source = SourceModel.cpdc(
        Gaussian(sigma=1e12),
        Separable(Gaussian(sigma=sigma_prime), Gaussian(sigma=3e12)),
        degenerate_central_frequencies(SourceKind.CPDC, 1.2e15))
    spec_p, spec_d = category_iii_specs(source, AMPS, math.pi)
    table_p, table_d = run_sweep(spec_p), run_sweep(spec_d)
    origin = table_p.rates[len(table_p) // 2]
    assert abs(origin - 0.0) <= 1e-9  # full dip, C = 1
    metrics = extract_dip_metrics(table_p, table_d)
    assert metrics.extremum_kind is ExtremumKind.DIP
    expected_fwhm = SPEED_OF_LIGHT * 2 * math.sqrt(2 * math.log(2)) / sigma_prime
    assert abs(metrics.fwhm_prime - expected_fwhm) <= 0.01 * expected_fwhm

    spec_p0, _ = category_iii_specs(source, AMPS, 0.0)
    table_p0 = run_sweep(spec_p0)
    peak = table_p0.rates[len(table_p0) // 2]
    assert abs(peak - 2.0) <= 1e-9  # full hump, 2C
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(3, f"dip 0 at pi, hump 2C at 0, FWHM within "
               f"{abs(metrics.fwhm_prime / expected_fwhm - 1) * 100:.3f}%",
            elapsed, 5)


def test_criterion_4_factorization_oracle():
    started = time.perf_counter()
    sigma_pump, sigma_pm = 1e12, 2e12
    source = SourceModel.cpdc(
        Gaussian(sigma=sigma_pump),
        Separable(Gaussian(sigma=sigma_pm), Gaussian(sigma=sigma_pm)),
        CentralFrequencies(2.4e15, 1.2e15, 1.2e15))
    cfg = OracleConfig(n_pump=129, n_prime=129, n_dprime=129)

    # uncoupled: 5x5x5 delay grid agrees with the factorized product
    fracs = np.linspace(-1.2, 1.2, 5)
    worst = 0.0
    for fp in fracs:
        for f1 in fracs:
            for f2 in fracs:
                d = DelayTriple(fp / sigma_pump, f1 / sigma_pm, f2 / sigma_pm)
                term = interference_term_3d(source, d, 0.0, cfg)
                fac = factorized_interference_term(source, d, 0.0)
                worst = max(worst, abs(term.value - fac) / INTERFERENCE_SCALE)
    assert worst < 1e-5

    # coupled: the error shrinks monotonically with the bandwidth ratio
    cfg_coupled = OracleConfig(n_pump=129, n_prime=129, n_dprime=129,
                               pump_coupling=LinearShift(1.0))
    delays = [DelayTriple(a / sigma_pm, b / sigma_pm, c / sigma_pm)
              for a, b, c in [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5),
                              (1.0, 0.3, 0.8), (0.2, 1.2, 0.4),
                              (1.5, 1.5, 1.5)]]
    rows = factorization_error_sweep(source, delays,
                                     [1.0, 0.3, 0.1, 0.03, 0.01], cfg_coupled)
    errs = [e for _, e in max_error_by_ratio(rows)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, f"uncoupled worst rel error {worst:.2e}; coupled errors "
               + " > ".join(f"{e:.1e}" for e in errs), elapsed, 60)


def test_criterion_5_topdc_choice_equivalence():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        p = _random_config(rng, length_scale=1e-5)
        centrals = CentralFrequencies(rng.uniform(1e15, 2.5e15),
                                      rng.uniform(1e15, 2.5e15),
                                      rng.uniform(1e15, 2.5e15))
        source = SourceModel.topdc(
            Gaussian(sigma=rng.uniform(5e12, 2e13)),
            Separable(Gaussian(sigma=rng.uniform(1e13, 4e13)),
                      Gaussian(sigma=rng.uniform(1e13, 4e13))),
            centrals)
        reduced = [reduce_topdc(p, c) for c in (1, 2, 3)]
        assert reduced[0].delta_l == reduced[1].delta_l == reduced[2].delta_l
        rates = [rate_length(source, r, AMPS).rate for r in reduced]
        scale = max(abs(rates[0]), 1e-9)
        assert abs(rates[1] - rates[0]) <= 1e-12 * scale
        assert abs(rates[2] - rates[0]) <= 1e-12 * scale
    elapsed = time.perf_counter() - started
    _report(5, "100 random geometries agree across all three labelings",
            elapsed, 60)


def test_criterion_6_frequency_transform_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    triples = rng.uniform(-10, 10, size=(10_000, 3))
    for fwd, inv in ((cpdc_freq_transform, cpdc_freq_inverse),
                     (topdc_freq_transform, topdc_freq_inverse)):
        a, b, c = fwd(triples[:, 0], triples[:, 1], triples[:, 2])
        back = np.column_stack(inv(a, b, c))
        err = np.abs(back - triples) / np.maximum(1.0, np.abs(triples))
        assert err.max() <= 1e-12
    for fwd, expected in ((cpdc_freq_transform, 0.25),
                          (topdc_freq_transform, 4.0 / 9.0)):
        mat = np.array([fwd(*e) for e in np.eye(3)]).T
        assert abs(abs(np.linalg.det(mat)) - expected) <= 1e-12
    elapsed = time.perf_counter() - started
    _report(6, "10^4 round trips <= 1e-12; Jacobians 1/4 and 4/9", elapsed, 60)


def test_criterion_7_coherence_kernel_cross_validation():
    started = time.perf_counter()
    # closed form vs generic quadrature, five characteristic widths out
    worst_rel = 0.0
    for density in (Gaussian(sigma=1.0), Gaussian(sigma=7.3e11),
                    Lorentzian(gamma=1.0), Lorentzian(gamma=2.9e12)):
        w = density.characteristic_width
        for frac in np.linspace(-5.0, 5.0, 21):
            zc = transform_1d(density, frac / w, method="closed_form")
            zq = transform_1d(density, frac / w, method="quadrature")
            worst_rel = max(worst_rel, abs(zq - zc) / abs(zc))
    assert worst_rel <= 1e-7

    # 1000 randomized density/delay cases: unit value at zero delay and
    # magnitude never above one
    rng = random.Random(107)
    shapes = [lambda r: Gaussian(sigma=r.uniform(0.3, 3.0)),
              lambda r: Lorentzian(gamma=r.uniform(0.3, 3.0)),
              lambda r: SincSquared(width=r.uniform(0.3, 3.0))]
    for _ in range(1000):
        density = rng.choice(shapes)(rng)
        method = rng.choice(["auto", "quadrature"])
        zero = gamma_pump(density, 0.0, method=method)
        assert abs(zero.magnitude - 1.0) <= 1e-9
        assert abs(zero.phase) <= 1e-9
        tau = rng.uniform(-5.0, 5.0) / density.characteristic_width
        assert gamma_pump(density, tau, method=method).magnitude <= 1.0 + 1e-9
    elapsed = time.perf_counter() - started
    _report(7, f"closed vs quadrature worst rel {worst_rel:.2e}; "
               "1000 random cases bounded", elapsed, 60)


def test_criterion_8_reduction_linearity_and_shift_invariance():
    started = time.perf_counter()
    rng = random.Random(109)
    reducers = [reduce_cpdc] + [lambda p, c=c: reduce_topdc(p, c) for c in (1, 2, 3)]
    for _ in range(1000):
        p = _random_config(rng, length_scale=2.0)
        q = _random_config(rng, length_scale=2.0)
        shift = rng.uniform(0.0, 10.0)
        p_plus_q = PathConfiguration(
            **{k: getattr(p, k) + getattr(q, k) for k in _LENGTHS},
            **{k: getattr(p, k) + getattr(q, k) for k in _PHASES})
        p_shifted = PathConfiguration(
            **{k: getattr(p, k) + shift for k in _LENGTHS},
            **{k: getattr(p, k) for k in _PHASES})
        for reduce_fn in reducers:
            rp, rq = reduce_fn(p), reduce_fn(q)
            rs = reduce_fn(p_plus_q)
            assert abs(rs.delta_l - (rp.delta_l + rq.delta_l)) <= 1e-12
            assert abs(rs.delta_l_prime
                       - (rp.delta_l_prime + rq.delta_l_prime)) <= 1e-12
            assert abs(rs.delta_l_dprime
                       - (rp.delta_l_dprime + rq.delta_l_dprime)) <= 1e-12
            rsh = reduce_fn(p_shifted)
            assert abs(rsh.delta_l - rp.delta_l) <= 1e-12
            assert abs(rsh.delta_l_prime - rp.delta_l_prime) <= 1e-12
            assert abs(rsh.delta_l_dprime - rp.delta_l_dprime) <= 1e-12
    elapsed = time.perf_counter() - started
    _report(8, "1000 random geometries: linear and shift-invariant", elapsed, 60)
