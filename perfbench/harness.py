"""The benchmark's workloads, set-up, timed passes and correctness checks.

One run drives the real user path, ``repro.bench.runner.run_suite``, from
outside, with one closed-loop client and ``workers=1``:

* **set-up** (timed as ``setup_s``): imports, suite construction and a
  fill of a fresh trace cache with every trace the suite replays;
* **cold pass**: ``run_suite`` over an empty result store, with the
  process-wide workload memo emptied first, so every pass parses its traces
  from the trace cache and simulates every replication;
* **warm passes**: ``run_suite`` again over the cold pass's store, which
  must simulate nothing and serve byte-identical reports.

Every replication of a cold pass and every lookup of a warm pass is one
operation.  It fails if it raises, if its report digest (sha256 of the
canonical ``MetricsReport`` JSON, counters included) or store key differs
from the expected one, or if a warm lookup misses.  The expected values come
from ``reference.json`` for ``REFERENCE_SEED``, and otherwise from the run's
own first cold pass ("no reference").

Durations are taken between speed-probe marks and rescaled by the probe
times (see :class:`SpeedProbe`): the host shares its cores, and without this
the same code reads up to 2x slower for minutes at a time.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: The seed ``reference.json`` is recorded for, and the default seed of a run.
REFERENCE_SEED = 0

#: Set-up repetitions per run; ``setup_s`` is the median import time of
#: fresh processes plus the median trace-cache fill and suite construction.
IMPORT_REPEATS = 3
SETUP_REPEATS = 5
#: What a fresh process imports before it can run a suite.
IMPORTS = "import repro.bench.runner, repro.traces"
#: Spans the traced run keeps in memory before it starts dropping them.
SPAN_CAP = 20000
#: Untraced and traced cold passes the traced run alternates.
OVERHEAD_PAIRS = 3
#: Share of the measured seconds spent on the warm path, after the cold passes.
WARM_SHARE = 0.15
#: Store lookups per timed batch of warm passes, at least: one warm pass of
#: a small suite lasts about a millisecond, too short to time alone.
WARM_BATCH_LOOKUPS = 200

#: Counters every space-sharing run reports; summed over the replications of
#: a pass, except the two high-water marks, which take the maximum.
COUNTERS = (
    "events_processed",
    "sched_passes",
    "jobs_started",
    "jobs_backfilled",
    "shadow_scans",
    "profile_patches",
    "slots_split",
    "slots_merged",
    "max_queue_depth",
    "peak_event_queue",
)
_MAX_COUNTERS = ("max_queue_depth", "peak_event_queue")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
# Each suite function maps ``(seed, tiny, materialize)`` to the suite a run replays;
# ``materialize`` fills the trace cache for a scenario and returns its
# workload.  Every replication seed derives from the run's seed, and several
# replications per suite keep one trace's quirks from setting the figure.


def _uniform_suite(name: str, policy: str, seed: int, tiny: bool, _materialize):
    from repro.api.scenario import Scenario
    from repro.bench.seeds import derive_seeds
    from repro.bench.suite import BenchmarkCase, BenchmarkSuite

    # FCFS cannot sustain load 0.9 on these traces, so its queue keeps
    # growing (about 100 deep after 400 jobs, against about 40 under
    # conservative backfilling): short traces, yet a deep queue.
    jobs, replications = (300, 2) if tiny else (400, 20)
    scenario = Scenario(
        workload=f"trace:uniform,jobs={jobs},load=0.9,machine_size=256",
        jobs=jobs,
        policy=policy,
    )
    case = BenchmarkCase(
        context=f"uniform-{jobs}@0.90",
        scenario=scenario,
        seeds=tuple(derive_seeds(seed, replications)),
    )
    return BenchmarkSuite(name=name, description=name, cases=(case,))


def _outage_suite(seed: int, tiny: bool, materialize):
    from repro.api.scenario import Scenario
    from repro.bench.seeds import derive_seeds
    from repro.bench.suite import BenchmarkCase, BenchmarkSuite

    jobs, replications = (200, 1) if tiny else (500, 8)
    seeds = tuple(derive_seeds(seed, replications))
    scenario = Scenario(
        workload=f"trace:lublin99,jobs={jobs},machine_size=128,load=0.7",
        jobs=jobs,
        machine_size=128,
    )
    # Failures over the whole trace span: the generated outage log must
    # cover the longest replication.
    span = max(materialize(scenario.with_(seed=s)).span() for s in seeds)
    outages = {"mtbf_days": 1.0, "horizon_days": float(math.ceil(span / 86400.0))}
    cases = tuple(
        BenchmarkCase(
            context=f"lublin99-{jobs}@0.70+outages",
            scenario=scenario.with_(policy=policy),
            seeds=seeds,
            outages=outages,
        )
        for policy in ("easy", "easy:outage_aware=true")
    )
    return BenchmarkSuite(name="outage-aware", description="outage-aware", cases=cases)


def _archive_suite(seed: int, tiny: bool, _materialize):
    from repro.api.scenario import Scenario
    from repro.bench.seeds import derive_seeds
    from repro.bench.suite import BenchmarkCase, BenchmarkSuite

    jobs, replications = (40, 2) if tiny else (100, 10)
    seeds = tuple(derive_seeds(seed, replications))
    cases = tuple(
        BenchmarkCase(
            context=f"trace:{archive}",
            scenario=Scenario(workload=f"trace:{archive},jobs={jobs}", jobs=jobs, policy=policy),
            seeds=seeds,
        )
        for archive in ("nasa-ipsc", "ctc-sp2", "sdsc-paragon", "lanl-cm5")
        for policy in ("fcfs", "easy")
    )
    return BenchmarkSuite(name="archive-sweep", description="archive-sweep", cases=cases)


WORKLOADS: Dict[str, Callable] = {
    "fcfs-deep-queue": functools.partial(_uniform_suite, "fcfs-deep-queue", "fcfs"),
    "conservative-profile": functools.partial(
        _uniform_suite, "conservative-profile", "conservative"
    ),
    "outage-aware": _outage_suite,
    "archive-sweep": _archive_suite,
}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def report_digest(report) -> str:
    """sha256 of the report's canonical JSON (every field, counters included)."""
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_id(outcome) -> str:
    return f"{outcome.case.name}#{outcome.seed}"


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def check_outcomes(
    outcomes, expected: Dict[str, Tuple[str, str]], tally: Tally, warm: bool
) -> None:
    """One operation per outcome: key and digest must equal ``expected``."""
    seen = set()
    for outcome in outcomes:
        oid = outcome_id(outcome)
        seen.add(oid)
        want = expected.get(oid)
        got = (outcome.key, report_digest(outcome.report))
        if want is None:
            tally.record(False, f"{oid}: not in the expected set")
        elif got[0] != want[0]:
            tally.record(False, f"{oid}: store key {got[0][:12]} != {want[0][:12]}")
        elif got[1] != want[1]:
            tally.record(False, f"{oid}: report digest {got[1][:12]} != {want[1][:12]}")
        elif warm and not outcome.cached:
            tally.record(False, f"{oid}: warm lookup missed the store")
        else:
            tally.record(True)
    for oid in sorted(set(expected) - seen):
        tally.record(False, f"{oid}: missing from the pass")


def counter_totals(outcomes) -> Dict[str, int]:
    totals = {name: 0 for name in COUNTERS}
    for outcome in outcomes:
        counters = outcome.report.counters
        for name in COUNTERS:
            value = int(counters.get(name, 0))
            if name in _MAX_COUNTERS:
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    return totals


def load_reference(workload: str, seed: int) -> Optional[dict]:
    """The committed reference for ``workload``, or None for another seed."""
    if seed != REFERENCE_SEED:
        return None
    try:
        with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        return None
    if reference["seed"] != REFERENCE_SEED:
        return None
    return reference["workloads"].get(workload)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One ``run_suite`` call and what it produced."""

    wall_s: float
    result: object = None
    error: Optional[str] = None


# Speed probes: fixed pieces of work whose time tracks how fast the host runs
# one kind of code at the moment.  Contention from other tenants slows kinds
# of code unequally, so each timed path is rescaled by the probe that moves
# with it: the simulator is bytecode-bound, the warm path is JSON decoding and
# dict churn.  Each probe's reference time is its fastest on the reference
# machine (a 2-vCPU Intel Xeon VM), so a rescaled interval reads as seconds
# on that machine without contention.
_PAYLOAD = [{"a": i, "b": str(i), "c": [i, i + 1.5]} for i in range(60)]


def _bytecode_work() -> None:
    total = 0
    for i in range(5000):
        total += i * i


def _json_work() -> None:
    for _ in range(10):
        json.loads(json.dumps(_PAYLOAD))


BYTECODE_PROBE = (_bytecode_work, 290e-6)
JSON_PROBE = (_json_work, 1140e-6)


def probe(work: Callable[[], None]) -> float:
    """Fastest of three runs of ``work``, garbage collection held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Instants bracketed by probe runs; intervals rescaled by the probe times.

    The host shares its cores, and contention slows a run by up to 2x for
    minutes at a time.  Probing before and after every timed interval
    measures that slowdown, and rescaling by it lets runs made under
    different contention be compared.  Only ``intervals`` between marks are
    timed, so the probes themselves are never part of a measurement.
    """

    def __init__(self, kind=BYTECODE_PROBE) -> None:
        self.work, self.reference_s = kind
        #: (instant before the probe, instant after it, probe time)
        self.marks: List[Tuple[float, float, float]] = []

    def mark(self) -> None:
        before = time.perf_counter()
        taken = probe(self.work)
        self.marks.append((before, time.perf_counter(), taken))

    def intervals(self) -> List[float]:
        """Rescaled seconds between consecutive marks, probes excluded."""
        return [
            (b[0] - a[1]) * self.reference_s / ((a[2] + b[2]) / 2)
            for a, b in zip(self.marks, self.marks[1:])
        ]


class Bench:
    """Set-up, passes and checks for one workload at one seed."""

    def __init__(
        self,
        workload: str,
        seed: int,
        workdir: Path,
        tiny: bool = False,
        reference: Optional[dict] = None,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.reference = reference
        self.tally = Tally()
        #: oid -> (store key, report digest) every later pass must match
        self.expected: Dict[str, Tuple[str, str]] = {}
        if reference is not None:
            self.expected = {
                r["id"]: (r["key"], r["digest"]) for r in reference["replications"]
            }
        self.counters: Optional[Dict[str, int]] = None
        self.suite = None
        self._stores = 0

    # -------------------------------------------------------------- set-up
    def set_up(self) -> None:
        """Build the suite and fill a fresh trace cache."""
        from repro.traces import TraceCache, trace_for_scenario

        cache_dir = Path(tempfile.mkdtemp(prefix="traces-", dir=self.workdir))
        cache = TraceCache(cache_dir)

        def materialize(scenario):
            return trace_for_scenario(scenario).materialize(cache=cache)

        suite = WORKLOADS[self.workload](self.seed, self.tiny, materialize)
        for case in suite.cases:
            for _seed, scenario in case.replications():
                trace = trace_for_scenario(scenario)
                if trace.digest not in cache:
                    trace.materialize(cache=cache)
        os.environ["REPRO_TRACE_CACHE"] = str(cache_dir)
        self.suite = suite
        self.trace_cache_dir = cache_dir

    # -------------------------------------------------------------- passes
    def new_store(self):
        from repro.bench.store import ResultStore

        self._stores += 1
        return ResultStore(self.workdir / f"store-{self._stores}")

    def run_pass(self, store, run_suite=None) -> Pass:
        """One ``run_suite`` call over ``store``, timed; exceptions are kept."""
        if run_suite is None:
            from repro.bench.runner import run_suite
        started = time.perf_counter()
        try:
            result = run_suite(self.suite, workers=1, store=store)
        except Exception as exc:  # noqa: BLE001 - a raising pass is a failed operation
            return Pass(time.perf_counter() - started, error=f"{type(exc).__name__}: {exc}")
        return Pass(time.perf_counter() - started, result=result)

    @staticmethod
    def fresh_process_state() -> None:
        """Empty the workload memo and collect garbage, as in a new process.

        A fresh process starts with an empty memo; emptying it makes every
        cold pass parse its traces exactly as the first one did, and keeps
        a pass's workloads from weighing on the next pass's collections.
        """
        import repro.api.runner as api_runner

        api_runner._SHARED_WORKLOADS.clear()
        gc.collect()

    def cold(self, store, run_suite=None, speed: Optional[SpeedProbe] = None) -> Pass:
        """A cold pass: empty store, fresh process state.

        ``speed``, if given, is marked right before and after ``run_suite``,
        so that its interval holds the pass alone and not the checks.
        """
        self.fresh_process_state()
        if speed is not None:
            speed.mark()
        done = self.run_pass(store, run_suite)
        if speed is not None:
            speed.mark()
        self.check(done, warm=False)
        return done

    def warm(self, store, run_suite=None) -> Pass:
        done = self.run_pass(store, run_suite)
        self.check(done, warm=True)
        return done

    def check(self, done: Pass, warm: bool) -> None:
        replications = self.suite.replication_count()
        if done.error is not None:
            for _ in range(replications):
                self.tally.record(False, done.error)
            return
        outcomes = done.result.replications
        if not self.expected:
            # No reference for this seed: the first cold pass sets the
            # expectation that every later pass is held to.
            self.expected = {
                outcome_id(o): (o.key, report_digest(o.report)) for o in outcomes
            }
        check_outcomes(outcomes, self.expected, self.tally, warm)
        if warm:
            self.tally.record(
                done.result.cache_misses == 0,
                f"warm pass simulated {done.result.cache_misses} replications",
            )
            return
        totals = counter_totals(outcomes)
        if self.counters is None:
            self.counters = totals
            if self.reference is not None:
                self.tally.record(
                    totals == self.reference["counters"],
                    f"counters {totals} != reference {self.reference['counters']}",
                )
        else:
            self.tally.record(totals == self.counters, f"counters drifted: {totals}")

    @staticmethod
    def jobs(done: Pass) -> int:
        return sum(o.report.jobs for o in done.result.replications)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_import_s(src: Path, workdir: Path) -> float:
    """Median rescaled time fresh interpreters take to import the runner.

    The interpreters keep their bytecode under a prefix in ``workdir`` that
    an untimed first import fills, so every timed import reads bytecode the
    benchmark compiled itself, whatever ``__pycache__`` the checkout holds.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(src)!r}]; import harness; "
        f"p = harness.SpeedProbe(); p.mark(); {IMPORTS}; p.mark(); print(p.intervals()[0])"
    )
    times = []
    for _ in range(1 + IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True, env=env
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def measure_end_to_end(bench: Bench, seconds: float, import_s: float) -> Dict[str, dict]:
    """Repeated cold passes, then batches of warm passes, for ``seconds``.

    Each cold pass, and each batch of warm passes, is timed between a pair
    of speed-probe marks (see :class:`SpeedProbe`) that enclose the
    ``run_suite`` calls alone; the outcomes are checked after the closing
    mark.  The figures are the medians of the rescaled times.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        speed = SpeedProbe()
        speed.mark()
        bench.set_up()
        speed.mark()
        setups.append(speed.intervals()[0])
    warm_budget = WARM_SHARE * seconds
    cold_deadline = time.perf_counter() + seconds - warm_budget
    cold_times: List[float] = []
    cold_walls: List[float] = []
    jobs = 0
    store = None
    while True:
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)
        cycle_started = time.perf_counter()
        store = bench.new_store()
        speed = SpeedProbe()
        cold = bench.cold(store, speed=speed)
        if cold.error is None:
            cold_times.append(speed.intervals()[0])
            cold_walls.append(cold.wall_s)
            jobs = Bench.jobs(cold)
        now = time.perf_counter()
        if now + (now - cycle_started) > cold_deadline:
            break

    # The warm path, over the last cold pass's store, in batches of passes.
    replications = bench.suite.replication_count()
    warm_batch = math.ceil(WARM_BATCH_LOOKUPS / replications)
    warm_times: List[float] = []
    bench.fresh_process_state()
    warm_until = time.perf_counter() + warm_budget
    while True:
        speed = SpeedProbe(JSON_PROBE)
        speed.mark()
        batch = [bench.run_pass(store) for _ in range(warm_batch)]
        speed.mark()
        for warm in batch:
            bench.check(warm, warm=True)
        if all(warm.error is None for warm in batch):
            warm_times.append(speed.intervals()[0])
        if time.perf_counter() >= warm_until:
            break
    shutil.rmtree(store.root, ignore_errors=True)
    cold_s = statistics.median(cold_times) if cold_times else math.inf
    warm_s = statistics.median(warm_times) if warm_times else math.inf
    print(
        f"  {len(cold_times)} cold passes of {jobs} jobs: median wall "
        f"{statistics.median(cold_walls) if cold_walls else math.inf:.3f}s, "
        f"{cold_s:.3f}s rescaled; {len(warm_times)} batches of {warm_batch} "
        f"warm passes: median {warm_s * 1e3:.3f}ms rescaled"
    )
    return {
        "setup_s": metric(import_s + statistics.median(setups), "s"),
        "jobs_per_s": metric(jobs / cold_s, "1/s"),
        "warm_reports_per_s": metric(warm_batch * replications / warm_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def _dir_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern) if p.is_file())


def measure_layers(bench: Bench, trace_path: Path) -> Tuple[Dict[str, dict], dict]:
    """Untraced and traced cold passes in turn, then a traced warm pass.

    The per-layer metrics come from the last traced cold pass and the warm
    pass.  Returns them and a summary of that cold pass (wall time, layer
    self times, span counts) for the self-test.
    """
    from layers import LayerClock
    from repro.bench.runner import run_suite
    from repro.obs.trace import Tracer, trace_scope, write_chrome_trace

    bench.set_up()
    # Passes are rescaled like the end-to-end ones and alternate, and the
    # ratio is of medians: one pair differs by up to 15% from host noise.
    untraced_times, traced_times = [], []
    for _ in range(OVERHEAD_PAIRS):
        speed = SpeedProbe()
        bench.cold(bench.new_store(), speed=speed)
        untraced_times.append(speed.intervals()[0])
        tracer = Tracer(max_spans=SPAN_CAP)
        store = bench.new_store()
        cold_clock = LayerClock(tracer)
        speed = SpeedProbe()
        with trace_scope(tracer), cold_clock.installed():
            cold = bench.cold(
                store, cold_clock.wrap("bench", "bench.run_suite", run_suite), speed=speed
            )
        traced_times.append(speed.intervals()[0])
    warm_clock = LayerClock(tracer)
    with trace_scope(tracer), warm_clock.installed():
        bench.warm(store, warm_clock.wrap("bench", "bench.run_suite", run_suite))
    write_chrome_trace(tracer, str(trace_path), process_name=f"perfbench:{bench.workload}")

    c = cold_clock
    counters = bench.counters or {name: 0 for name in COUNTERS}
    events = c.calls.get("evaluation.event", 0)
    pushes = c.calls.get("engine.schedule_at", 0)
    select_calls = c.layer_calls("schedulers.") - c.calls.get("schedulers.job_fits_now", 0)
    machine_calls = c.layer_calls("machine.")
    # The wrappers' counts and the program's own counters describe the same
    # work; any disagreement is a failed check.
    bench.tally.record(
        events == counters["events_processed"],
        f"engine dispatched {events} events, reports say {counters['events_processed']}",
    )
    bench.tally.record(
        select_calls == counters["sched_passes"],
        f"select_jobs ran {select_calls} times, reports say {counters['sched_passes']} passes",
    )
    attributed = c.attributed_s()
    unattributed = cold.wall_s - attributed

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m = {
        "traces.self_s": metric(c.self_s("traces"), "s"),
        "traces.calls": metric(c.layer_calls("traces."), "count"),
        "traces.bytes_read": metric(_dir_bytes(bench.trace_cache_dir, "*/*.swf"), "bytes"),
        "engine.self_s": metric(c.self_s("engine"), "s"),
        "engine.pushes": metric(pushes, "count"),
        "engine.events": metric(counters["events_processed"], "count"),
        "engine.useful_ratio": metric(per(events, pushes), "ratio"),
        "engine.ns_per_event": metric(per(c.self_ns["engine"], events), "ns"),
        "evaluation.self_s": metric(c.self_s("evaluation"), "s"),
        "evaluation.ns_per_event": metric(per(c.self_ns["evaluation"], events), "ns"),
        "evaluation.sched_passes": metric(counters["sched_passes"], "count"),
        "evaluation.jobs_started": metric(counters["jobs_started"], "count"),
        "evaluation.max_queue_depth": metric(counters["max_queue_depth"], "count"),
        "evaluation.peak_event_queue": metric(counters["peak_event_queue"], "count"),
        "schedulers.select_s": metric(c.self_s("schedulers.select"), "s"),
        "schedulers.select_calls": metric(select_calls, "count"),
        "schedulers.empty_pass_ratio": metric(
            per(c.counts["schedulers.empty_passes"], select_calls), "ratio"
        ),
        "schedulers.fit_check_s": metric(c.self_s("schedulers.fit_check"), "s"),
        "schedulers.fit_checks": metric(c.calls.get("schedulers.job_fits_now", 0), "count"),
        "schedulers.jobs_backfilled": metric(counters["jobs_backfilled"], "count"),
        "schedulers.shadow_scans": metric(counters["shadow_scans"], "count"),
        "freespace.self_s": metric(c.self_s("freespace"), "s"),
        "freespace.calls": metric(c.layer_calls("freespace."), "count"),
        "freespace.profile_patches": metric(counters["profile_patches"], "count"),
        "freespace.slots_split": metric(counters["slots_split"], "count"),
        "freespace.slots_merged": metric(counters["slots_merged"], "count"),
        "machine.self_s": metric(c.self_s("machine"), "s"),
        "machine.calls": metric(machine_calls, "count"),
        "machine.ns_per_call": metric(per(c.self_ns["machine"], machine_calls), "ns"),
        "machine.nodes_scanned": metric(c.counts["machine.nodes_scanned"], "count"),
        "outage.self_s": metric(c.self_s("outage"), "s"),
        "metrics.self_s": metric(c.self_s("metrics"), "s"),
        "metrics.calls": metric(c.layer_calls("metrics."), "count"),
        "store.get_s": metric(warm_clock.self_s("store.get"), "s"),
        "store.gets": metric(warm_clock.calls.get("store.get", 0), "count"),
        "store.hit_ratio": metric(
            per(warm_clock.counts["store.hits"], warm_clock.calls.get("store.get", 0)), "ratio"
        ),
        "store.put_s": metric(c.self_s("store.put"), "s"),
        "store.puts": metric(c.calls.get("store.put", 0), "count"),
        "store.bytes_written": metric(_dir_bytes(store.root, "*/*.json"), "bytes"),
        "bench.self_s": metric(c.self_s("bench"), "s"),
        "trace_overhead_s": metric(c.overhead_ns / 1e9, "s"),
        "trace_overhead_ratio": metric(
            per(statistics.median(traced_times), statistics.median(untraced_times)), "ratio"
        ),
        "unattributed_s": metric(unattributed, "s"),
    }
    summary = {
        "cold_wall_s": cold.wall_s,
        "layer_self_s": {b: c.self_s(b) for b in sorted(c.self_ns)},
        "spans": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return m, summary
