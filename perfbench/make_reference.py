"""Record the reference report digests, store keys and counters.

    python3 perfbench/make_reference.py [workload ...]

Runs one cold pass per workload at full size, at the benchmark's default
seed (``harness.REFERENCE_SEED``), and writes what it produced to
``perfbench/reference.json``.  The benchmark then holds every run at that
seed to exactly these values; regenerate only when a change is meant to
alter schedules, reports or store keys, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(harness.WORKLOADS))
    args = parser.parse_args(argv)

    try:
        with open(harness.REFERENCE_PATH, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {"seed": harness.REFERENCE_SEED, "workloads": {}}
    if reference["seed"] != harness.REFERENCE_SEED:
        # Entries for another seed would never be read again.
        reference = {"seed": harness.REFERENCE_SEED, "workloads": {}}
    out = HERE.parent / ".perfbench-out"
    out.mkdir(exist_ok=True)
    for name in args.workloads:
        workdir = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=out))
        try:
            bench = harness.Bench(name, harness.REFERENCE_SEED, workdir)
            bench.set_up()
            store = bench.new_store()
            cold = bench.cold(store)
            bench.warm(store)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if cold.error is not None or bench.tally.failed:
            print(f"{name}: not recorded: {cold.error or bench.tally.reasons}", file=sys.stderr)
            return 1
        reference["workloads"][name] = {
            "replications": [
                {
                    "id": harness.outcome_id(o),
                    "key": o.key,
                    "digest": harness.report_digest(o.report),
                }
                for o in cold.result.replications
            ],
            "counters": bench.counters,
        }
        print(f"{name}: {len(cold.result.replications)} replications recorded")
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
