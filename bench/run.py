"""Benchmark of the triphoton simulator.

Run from the repository root::

    python3 bench/run.py --workload scan_closed_form --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The human-readable report goes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. ``--workload all`` runs each
workload in its own process and reports them all. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
NAMES = ("scan_closed_form", "scan_tabulated", "oracle_joint")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time after the warm-up pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every code path on small inputs (smoke tests)")
    p.add_argument("--spans", type=Path, default=None,
                   help="write the last traced pass's spans here as JSON lines")
    return p


def _environment() -> str:
    import numpy
    import scipy
    pins = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"# env: python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {os.cpu_count()} threads: {pins}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args, declared: dict) -> dict:
    import harness
    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    print(_environment())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in result.metrics.items():
        print(f"{name} = {_fmt(value)} {units.get(name, '')}".rstrip())
    tail = harness.tail_percentile(result.walls)
    print(f"# wall_s: median of {len(result.walls)} passes"
          + (f", p{tail[0]} {tail[1]:.6g} s" if tail else ", too few passes for a tail percentile")
          + f"; setup_s: median of {result.setup_runs} fresh processes")
    print("# wall_s passes: " + " ".join(f"{w:.4g}" for w in result.walls))
    print(f"failed_ops = {result.failed / result.attempted:.6g} share "
          f"({result.failed} of {result.attempted})")
    for c in result.checks:
        print(f"# check {c.name}: error {c.err:.3g}, tolerance {c.tol:.3g}, "
              f"{'ok' if c.ok else 'FAILED'}")
    for note in result.failures[:20]:
        print(f"# failure: {note}")
    if args.spans is not None and result.tracer is not None:
        result.tracer.dump(args.spans)
    kind = "per_layer" if args.trace else "end_to_end"
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                        for m in declared[kind]}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return total


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "triphoton" / "__init__.py").is_file():
        print(f"error: no triphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import triphoton
    if Path(triphoton.__file__).resolve().parent != ROOT / "src" / "triphoton":
        print(f"error: imported triphoton from {triphoton.__file__}", file=sys.stderr)
        return 2
    out = run_all(args) if args.workload == "all" else run_one(args, declared)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # one BLAS/OpenMP thread, pinned before numpy is first imported; set-up
    # probes inherit the pin through the environment
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
