"""Measurement loop: set-up probes, timed passes, output checks and metrics."""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path(__file__).with_name("probe_setup.py")

DIAGNOSTICS = ("oracle.ref_gap", "coherence.tab2d.bilinear_gap",
               "coherence.tab2d.continuum_gap", "check.max_rel_err")


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    setup_runs: int = 0
    tracer: spans.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def count(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(note)


def probe_setup(workload) -> float | None:
    spec = {"src": str(ROOT / "src"), "configs": [str(p) for p in workload.configs],
            "table2d": str(workload.table2d) if workload.table2d else None}
    proc = subprocess.run([sys.executable, str(PROBE), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return None
    return float(proc.stdout.split()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> Result:
    """Run one workload: set-up probes, a warm-up pass, then passes until
    ``seconds`` have gone by; the warm-up outputs are checked against the
    references last.

    Every pass's outputs must be byte-identical to the warm-up pass's. With
    ``trace`` the passes alternate untraced and traced, and the metrics are
    the per-layer ones; otherwise they are the end-to-end ones. Full runs
    take ``setup_s`` from 7 set-up probes, tiny runs from one.
    """
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        return _measure(WORKLOADS[name](seed, size, work), seconds, trace,
                        setup_runs=7 if size == "full" else 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(workload, seconds, trace, setup_runs) -> Result:
    result = Result(metrics={})
    setup = []
    for _ in range(setup_runs):
        t = probe_setup(workload)
        result.count(t is not None, "set-up probe failed")
        if t is not None:
            setup.append(t)
    result.setup_runs = len(setup)

    def one_pass(tracer=None):
        gc.collect()
        if tracer:
            tracer.install()
        try:
            started = time.perf_counter()
            n_ops, failures, raw = workload.run_pass()
            wall = time.perf_counter() - started
        finally:
            if tracer:
                tracer.restore()
        for note in failures:
            result.count(False, note)
        for _ in range(n_ops - len(failures)):
            result.count(True, "")
        return wall, workload.outputs(raw)

    _, first = one_pass()  # kept as bytes; checked after the peak RSS is read

    layers = []
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if trace else (False,)):
            tracer = spans.Tracer() if traced else None
            wall, outputs = one_pass(tracer)
            for key, data in outputs.items():
                result.count(data == first[key], f"{key} differs from the warm-up pass")
            if traced:
                result.traced_walls.append(wall)
                m = spans.layer_metrics(tracer)
                m["cli.csv_bytes"] = sum(len(v) for k, v in outputs.items()
                                         if k.endswith(".csv"))
                layers.append(m)
                result.tracer = tracer
            else:
                result.walls.append(wall)
        if time.perf_counter() >= deadline:
            break

    # the references decode and recompute every output, so their own arrays
    # must not count towards the program's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.checks = workload.check(first)
    for c in result.checks:
        result.count(c.ok, f"check {c.name}: error {c.err:.3g} above {c.tol:.3g}")
    diagnostics = dict.fromkeys(DIAGNOSTICS, 0.0)  # 0 where the layer does not run
    diagnostics.update(workload.diagnostics(first))
    diagnostics["check.max_rel_err"] = max(c.err for c in result.checks if c.engine)

    if trace:
        result.metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result.metrics.update(diagnostics)
        result.metrics["trace.overhead_s"] = (statistics.median(result.traced_walls)
                                              - statistics.median(result.walls))
    else:
        result.metrics = {
            "wall_s": statistics.median(result.walls),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        result.metrics.update(diagnostics)
    return result
