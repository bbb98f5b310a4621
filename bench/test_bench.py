"""Smoke tests of the benchmark itself, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
from triphoton import cli, coherence, spectra  # noqa: E402
from triphoton.errors import ValidationError  # noqa: E402

WORKLOADS = run.NAMES
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, trace=False):
    return harness.measure(name, seed=3, seconds=0, trace=trace, size="tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_emits_every_metric(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(out["metrics"]) == [m["name"] for m in DECLARED[kind]]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def _scaled(fn, factor):
    return lambda *a, **k: fn(*a, **k) * factor


def _flaky_csv(monkeypatch):
    # the warm-up pass writes 10 CSVs (5 scans); every later one loses its last row
    calls = itertools.count()
    write = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: write(
        path, header, rows if next(calls) < 10 else rows[:-1]))


def _quadrature_off(monkeypatch):
    fourier = coherence._segmented_fourier
    monkeypatch.setattr(coherence, "_segmented_fourier",
                        lambda *a: (fourier(*a)[0] * (1 + 1e-6), 0.0))


def _failing_sweep(config, out_dir):
    raise ValidationError("perturbed")


PERTURBATIONS = {
    "closed_form_off_by_1e-6": ("scan_closed_form", lambda mp: mp.setattr(
        spectra.Lorentzian, "analytic_transform",
        _scaled(spectra.Lorentzian.analytic_transform, 1 + 1e-6))),
    "csv_differs_between_passes": ("scan_closed_form", _flaky_csv),
    "sweep_exits_nonzero": ("scan_closed_form", lambda mp: mp.setattr(
        cli, "run_sweep_cmd", _failing_sweep)),
    "quadrature_off_by_1e-6": ("scan_tabulated", _quadrature_off),
    "joint_transform_off_by_1e-5": ("oracle_joint", lambda mp: mp.setattr(
        coherence, "_tabulated2d_transform",
        _scaled(coherence._tabulated2d_transform, 1 + 1e-5))),
}


@pytest.mark.parametrize("case", PERTURBATIONS)
def test_perturbed_output_is_a_failure(case, monkeypatch):
    name, perturb = PERTURBATIONS[case]
    perturb(monkeypatch)
    result = tiny(name)
    assert result.failed > 0 and not result.correct


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_fit_in_the_pass(name):
    original = cli.parse_config
    result = tiny(name, trace=True)
    assert cli.parse_config is original  # wrappers removed after the pass
    wall = result.traced_walls[-1]
    totals = result.tracer.totals()
    assert totals
    assert all(0 <= t["self_s"] <= wall for t in totals.values())
    assert sum(t["self_s"] for t in totals.values()) <= wall
