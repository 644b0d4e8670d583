"""End-to-end distributed execution: workers, crash-resume, bit-identity.

The crash tests run real worker subprocesses against a shared queue/store
directory and SIGKILL them mid-simulation — the exact failure the lease
TTL + store-rescan design exists to survive.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import Scenario
from repro.bench.runner import run_suite
from repro.bench.store import ResultStore, StoredResult
from repro.bench.suite import BenchmarkCase, BenchmarkSuite
from repro.dist import (
    QueueIncompleteError,
    WorkQueue,
    gather,
    run_worker,
)


SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


def small_suite(name: str = "dist-small", seeds=(1, 2, 3)) -> BenchmarkSuite:
    scenario = Scenario(workload="uniform", jobs=60, machine_size=32, load=0.7)
    return BenchmarkSuite(
        name=name, description="",
        cases=(
            BenchmarkCase(context="u", scenario=scenario.with_(policy="fcfs"),
                          seeds=tuple(seeds)),
            BenchmarkCase(context="u", scenario=scenario.with_(policy="easy"),
                          seeds=tuple(seeds)),
            # A generated outage log: workers rebuild it from the unit's
            # recorded parameters, never from the case object.
            BenchmarkCase(context="u+outages", scenario=scenario.with_(policy="easy"),
                          seeds=tuple(seeds),
                          outages={"mtbf_days": 1.0, "horizon_days": 30.0}),
        ),
        metrics=("mean_wait",),
    )


def store_keys(root: Path):
    return sorted(path.stem for path in Path(root).glob("*/*.json"))


class TestWorkerEndToEnd:
    def test_single_worker_drains_the_queue(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        enq = queue.enqueue_suite(suite, store=store)
        stats = run_worker(queue, store, worker_id="w0")
        assert stats.simulated == enq.units
        assert stats.claimed == enq.units
        assert stats.events_processed > 0
        assert queue.pending_keys(store) == []
        # The ledger was published for status tooling.
        record = queue.worker_stats()["w0"]
        assert record["simulated"] == enq.units
        assert record["events_processed"] == stats.events_processed
        assert record["counters"]["dist.claim"] == enq.units

    def test_distributed_store_is_bit_identical_to_serial(self, tmp_path):
        suite = small_suite()
        dist_store = ResultStore(tmp_path / "dist-store")
        serial_store = ResultStore(tmp_path / "serial-store")
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite, store=dist_store)
        run_worker(queue, dist_store, worker_id="w0")
        run_suite(suite, store=serial_store)

        assert store_keys(dist_store.root) == store_keys(serial_store.root)
        for key in store_keys(serial_store.root):
            ours, theirs = dist_store.get(key), serial_store.get(key)
            assert ours.scenario == theirs.scenario
            assert ours.extra == theirs.extra
            assert ours.suite == theirs.suite and ours.case == theirs.case
            # to_json carries the counters too, so restarts caused by the
            # generated outages must match event for event.
            assert ours.report.to_json() == theirs.report.to_json()
        outage_keys = [
            key for key in store_keys(serial_store.root)
            if serial_store.get(key).extra.get("outages")
        ]
        assert len(outage_keys) == 3
        # The outages really bite: failed jobs were restarted.
        assert any(
            serial_store.get(key).report.counters["jobs_started"] > 60
            for key in outage_keys
        )

    def test_worker_skips_already_stored_units(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        run_suite(suite, store=store)
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite, store=store)
        stats = run_worker(queue, store, worker_id="w0")
        assert stats.simulated == 0

    def test_max_units_bounds_one_worker(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        enq = queue.enqueue_suite(suite, store=store)
        stats = run_worker(queue, store, max_units=2, worker_id="w0")
        assert stats.simulated == 2
        rest = run_worker(queue, store, worker_id="w1")
        assert rest.simulated == enq.units - 2

    def test_corrupt_unit_is_skipped_not_fatal(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        enq = queue.enqueue_suite(suite, store=store)
        victim = queue.unit_keys()[0]
        (queue.units_dir / f"{victim}.json").write_text("{torn")
        stats = run_worker(queue, store, worker_id="w0")
        assert stats.corrupt_units == 1
        assert stats.simulated == enq.units - 1
        assert queue.pending_keys(store) == [victim]


class TestGather:
    def test_gather_refuses_an_incomplete_suite(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite, store=store)
        with pytest.raises(QueueIncompleteError) as excinfo:
            gather(queue, suite, store)
        assert excinfo.value.total == 9
        assert len(excinfo.value.missing) == 9

    def test_gather_requires_a_manifest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        with pytest.raises(FileNotFoundError):
            gather(queue, small_suite(), store)

    def test_gather_matches_the_serial_result(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite, store=store)
        run_worker(queue, store, worker_id="w0")
        gathered = gather(queue, suite, store)
        assert gathered.cache_hits == 9 and gathered.cache_misses == 0

        serial = run_suite(suite, store=ResultStore(tmp_path / "serial"))
        assert gathered.rows() == serial.rows()

    def test_allow_partial_drains_locally(self, tmp_path):
        suite = small_suite()
        store = ResultStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        queue.enqueue_suite(suite, store=store)
        result = gather(queue, suite, store, allow_partial=True)
        assert result.cache_misses == 9
        assert queue.pending_keys(store) == []


#: Child that hammers one store key with a marker value; the parent reads
#: concurrently to prove puts are atomic (no torn entry is ever visible).
RACE_WRITER = """
import sys, time
from repro.api import Scenario, run
from repro.bench.store import ResultStore, StoredResult

store = ResultStore(sys.argv[1])
marker = float(sys.argv[2])
scenario = Scenario(workload="uniform", jobs=20, machine_size=16, load=0.5, seed=3)
report = run(scenario).report
deadline = time.monotonic() + float(sys.argv[3])
while time.monotonic() < deadline:
    store.put(StoredResult(key="f" * 64, scenario=scenario, report=report,
                           extra={}, elapsed_seconds=marker))
"""

#: Child worker process: drain a queue into a store (the crash victim).
WORKER_CHILD = """
import sys
from repro.bench.store import ResultStore
from repro.dist import WorkQueue, run_worker

queue = WorkQueue(sys.argv[1])
store = ResultStore(sys.argv[2])
stats = run_worker(queue, store, ttl=float(sys.argv[3]), worker_id=sys.argv[4])
print(stats.simulated)
"""


class TestCrossProcess:
    def test_concurrent_puts_same_key_never_tear(self, tmp_path):
        store_root = tmp_path / "store"
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", RACE_WRITER, str(store_root),
                 str(float(marker)), "1.5"],
                env=child_env(),
            )
            for marker in (1, 2)
        ]
        store = ResultStore(store_root)
        key = "f" * 64
        observed = set()
        decoded = 0
        deadline = time.monotonic() + 10
        while any(w.poll() is None for w in writers):
            assert time.monotonic() < deadline, "race writers never finished"
            entry = store.get(key)
            if entry is not None:
                # Every read sees one complete entry — last writer wins,
                # never an interleaving of the two.
                assert entry.elapsed_seconds in (1.0, 2.0)
                observed.add(entry.elapsed_seconds)
                decoded += 1
        for writer in writers:
            assert writer.wait() == 0
        assert decoded > 0
        final = store.get(key)
        assert final is not None and final.elapsed_seconds in (1.0, 2.0)

    def test_two_worker_processes_split_one_suite(self, tmp_path):
        suite = small_suite("dist-pair", seeds=(1, 2, 3, 4))
        store_root = tmp_path / "store"
        queue_root = tmp_path / "queue"
        store = ResultStore(store_root)
        queue = WorkQueue(queue_root)
        enq = queue.enqueue_suite(suite, store=store)

        workers = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER_CHILD, str(queue_root),
                 str(store_root), "60", f"proc{i}"],
                env=child_env(), stdout=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0
        assert queue.pending_keys(store) == []

        # No unit was simulated twice: the fleet's per-worker ledgers sum to
        # exactly the simulator events recorded across the store.
        stats = queue.worker_stats()
        fleet_simulated = sum(s["simulated"] for s in stats.values())
        fleet_events = sum(s["events_processed"] for s in stats.values())
        store_events = sum(
            int(store.get(key).report.counters.get("events_processed", 0))
            for key in store_keys(store_root)
        )
        assert fleet_simulated == enq.units
        assert fleet_events == store_events

    def test_sigkilled_worker_resumes_with_zero_resimulation(self, tmp_path):
        # Enough units that the victim is mid-suite when it dies.
        suite = small_suite("dist-crash", seeds=(1, 2, 3, 4, 5, 6))
        store_root = tmp_path / "store"
        queue_root = tmp_path / "queue"
        store = ResultStore(store_root)
        queue = WorkQueue(queue_root)
        enq = queue.enqueue_suite(suite, store=store)

        ttl = 0.5
        victim = subprocess.Popen(
            [sys.executable, "-c", WORKER_CHILD, str(queue_root),
             str(store_root), str(ttl), "victim"],
            env=child_env(), stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not store_keys(store_root):
            assert time.monotonic() < deadline, "victim never stored a unit"
            assert victim.poll() is None, "victim exited before the kill"
            time.sleep(0.01)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()

        stored_at_death = store_keys(store_root)
        missing = len(queue.pending_keys(store))
        assert 0 < len(stored_at_death) <= enq.units

        # Let any lease the victim died holding expire, then resume.
        time.sleep(ttl + 0.2)
        stats = run_worker(queue, store, ttl=ttl, worker_id="survivor")
        assert queue.pending_keys(store) == []
        assert len(store_keys(store_root)) == enq.units
        # Zero re-simulation: the survivor ran exactly the missing units,
        # and every key the victim stored is untouched.
        assert stats.simulated == missing
        assert set(stored_at_death) <= set(store_keys(store_root))

        events = [
            json.loads(line)
            for line in queue.journal_path.read_text().splitlines()
        ]
        done = [e for e in events if e.get("event") == "dist.unit_done"]
        # Each key finished at most once fleet-wide (the kill may land
        # between a store write and its journal line, so one done event —
        # never a duplicate — can be missing).
        assert len({e["key"] for e in done}) == len(done)
        assert enq.units - 1 <= len(done) <= enq.units
