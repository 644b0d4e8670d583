"""Self-test of the benchmark itself, at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, rationale.json and the harness agree; that every
end-to-end and per-layer metric is produced with its declared unit; that the
traced run's layer self times stay non-negative once the instrumentation's
cost is taken out of them, and that ``run_suite``'s own self time
(``bench.self_s``, where everything no layer wrapper sees ends up) and
``unattributed_s`` stay small shares of its cold wall time; that a Chrome
trace is written; and that a corrupted reference digest makes operations
fail.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

FAILURES = []
#: Largest share of a traced cold pass that may fall to no layer but
#: ``run_suite`` itself (expansion, keying, aggregation).
BENCH_SHARE = 0.10


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_declarations(spec: dict) -> None:
    print("declarations")
    expect(
        [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS),
        "BENCHMARK.json workloads are the harness workloads, in order",
    )
    with open(HERE / "rationale.json", "r", encoding="utf-8") as handle:
        rationale = json.load(handle)["per_layer"]
    names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(rationale) == sorted(names), "rationale.json covers every per-layer metric")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1
        and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s is declared with the largest bound",
    )


def check_metrics(got: dict, declared: list, what: str) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    expect(sorted(got) == sorted(units), f"{what}: exactly the declared metrics")
    wrong = [n for n, e in got.items() if units.get(n) != e["unit"]]
    expect(not wrong, f"{what}: declared units {wrong or ''}")
    bad = [n for n, e in got.items() if not math.isfinite(e["value"])]
    expect(not bad, f"{what}: finite values {bad or ''}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_declarations(spec)
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        for name in harness.WORKLOADS:
            print(name)
            bench = harness.Bench(name, 7, workdir / name / "e2e", tiny=True)
            bench.workdir.mkdir(parents=True)
            metrics = harness.measure_end_to_end(bench, 0.5, import_s=0.0)
            check_metrics(metrics, spec["end_to_end"], "end-to-end")
            positive = all(e["value"] > 0 for e in metrics.values())
            expect(positive, "end-to-end values are positive")
            expect(bench.tally.failed == 0, f"no failed operations {bench.tally.reasons}")

            bench = harness.Bench(name, 7, workdir / name / "traced", tiny=True)
            bench.workdir.mkdir(parents=True)
            trace_path = workdir / f"{name}.trace.json"
            metrics, summary = harness.measure_layers(bench, trace_path)
            check_metrics(metrics, spec["per_layer"], "per-layer")
            expect(bench.tally.failed == 0, f"no failed operations {bench.tally.reasons}")
            negative = {b: t for b, t in summary["layer_self_s"].items() if t < 0}
            expect(not negative, f"layer self times are non-negative {negative or ''}")
            wall = summary["cold_wall_s"]
            share = metrics["bench.self_s"]["value"] / wall
            expect(share < BENCH_SHARE, f"bench.self_s share {share:.4f} is below {BENCH_SHARE}")
            share = metrics["unattributed_s"]["value"] / wall
            expect(abs(share) < 0.05, f"unattributed share {share:.4f} is within 5%")
            with open(trace_path, "r", encoding="utf-8") as handle:
                events = json.load(handle)["traceEvents"]
            expect(
                sum(1 for e in events if e["ph"] == "X") == summary["spans"] > 0,
                f"Chrome trace holds the {summary['spans']} recorded spans",
            )

        print("corrupted reference")
        bench = harness.Bench("archive-sweep", 7, workdir / "reference", tiny=True)
        bench.workdir.mkdir(parents=True)
        bench.set_up()
        cold = bench.cold(bench.new_store())
        replications = [
            {"id": harness.outcome_id(o), "key": o.key, "digest": harness.report_digest(o.report)}
            for o in cold.result.replications
        ]
        reference = {"seed": 7, "replications": replications, "counters": bench.counters}
        honest = harness.Bench("archive-sweep", 7, workdir / "honest", tiny=True,
                               reference=reference)
        honest.workdir.mkdir(parents=True)
        honest.set_up()
        honest.cold(honest.new_store())
        expect(honest.tally.failed == 0, "the recorded reference passes")
        replications[0] = dict(replications[0], digest="0" * 64)
        corrupted = harness.Bench("archive-sweep", 7, workdir / "corrupted", tiny=True,
                                  reference=reference)
        corrupted.workdir.mkdir(parents=True)
        corrupted.set_up()
        store = corrupted.new_store()
        corrupted.cold(store)
        corrupted.warm(store)
        expect(
            corrupted.tally.failed > 0,
            f"a corrupted digest fails operations "
            f"({corrupted.tally.failed}/{corrupted.tally.attempted})",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"selftest: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
