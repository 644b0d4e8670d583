"""Benchmark of the scheduler-evaluation pipeline, run from the repository root.

    python3 perfbench/run.py --workload fcfs-deep-queue --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, cold-pass job
throughput, warm-pass report throughput, peak memory); ``--trace 1`` makes a
separate traced run and reports per-layer self times and counts, and writes
a Chrome trace to ``.perfbench-out/``.  ``--workload all`` runs every
workload in its own process and prints one table.  The last line of
standard output is the result as one JSON object.

Every run works in a fresh temporary trace cache and result store under
``.perfbench-out/``, removed at exit, and never touches ``~/.cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs HERE on the path)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=harness.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_result(metrics, attempted, failed) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'fail_ratio':<32} {ratio:.6g} ({failed}/{attempted} operations failed)")


def _run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "trace-cache")
    os.environ["REPRO_BENCH_STORE"] = str(workdir / "store")
    try:
        sys.path.insert(0, str(src))
        reference = harness.load_reference(args.workload, args.seed)
        bench = harness.Bench(args.workload, args.seed, workdir, reference=reference)
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        if reference is None:
            print(
                f"  no reference for seed {args.seed}: passes are checked against "
                "the first cold pass (cold==warm, pass==pass)"
            )
        else:
            print(f"  checked against the committed reference for seed {args.seed}")
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}.json"
            metrics, summary = harness.measure_layers(bench, trace_path)
            print(
                f"  chrome trace: {trace_path} ({summary['spans']} spans, "
                f"{summary['spans_dropped']} dropped)"
            )
        else:
            import_s = harness.measure_import_s(src, workdir)
            metrics = harness.measure_end_to_end(bench, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = bench.tally
    _print_result(metrics, tally.attempted, tally.failed)
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process (an empty workload memo each)."""
    results = {}
    for name in harness.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 1
    print(f"perfbench all workloads seed={args.seed} trace={args.trace}")
    merged = {}
    for name, result in results.items():
        print(f"{name}:")
        _print_result(result["metrics"], result["attempted"], result["failed"])
        for metric_name, entry in result["metrics"].items():
            merged[f"{name}.{metric_name}"] = entry
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": merged,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
