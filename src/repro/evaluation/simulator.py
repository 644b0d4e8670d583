"""Event-driven simulation of a machine scheduler replaying a workload.

This is the evaluation driver the paper's methodology centres on: take a
workload (an SWF trace or the output of a workload model), a machine, and a
scheduling policy, replay the workload through the policy, and report per-job
outcomes from which the standard metrics are computed.

Features required by the paper's extensions are built in:

* **feedback replay** (``honor_dependencies=True``): jobs carrying the
  preceding-job / think-time fields are submitted relative to the completion
  of their predecessor instead of at their absolute submit time — the closed
  user-session behaviour of Section 2.2;
* **outages** (``outages=OutageLog(...)``): nodes fail and recover according
  to the outage log; jobs running on failed nodes are killed and (optionally)
  restarted, and outage-aware policies see announced outages through the
  state's capacity function — Section 2.2's "Including outage information";
* **user estimates**: policies only ever see requested times, never actual
  runtimes.

The machine, its wait queue, its running set and the scheduling pass live in
:class:`SpaceSite`, which the grid driver (:mod:`repro.grid.simulation`) runs
once per site; :class:`MachineSimulation` adds the workload, outage and
dependency events around one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import is_
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.core.outage.log import OutageLog
from repro.core.swf.fields import MISSING
from repro.core.swf.workload import Workload
from repro.evaluation.results import JobResult, SimulationResult
from repro.machine.cluster import Machine
from repro.obs.telemetry import Telemetry, telemetry_scope
from repro.schedulers.base import (
    JobRequest,
    RunningJobInfo,
    Scheduler,
    SchedulerState,
    admit,
)
from repro.simulation.engine import Simulator

__all__ = ["MachineSimulation", "SpaceSite", "simulate", "window_capacity"]

# Event priorities: completions are processed before outage transitions,
# which are processed before arrivals at the same instant, so that freed or
# failed capacity is visible to the scheduling pass triggered by an arrival.
_PRIORITY_COMPLETION = 0
_PRIORITY_OUTAGE = 1
_PRIORITY_ARRIVAL = 2


@dataclass
class _Running:
    request: JobRequest
    start_time: float
    expected_end: float
    #: engine handle of the completion event, for drivers that cancel it
    completion_handle: Optional[int] = None
    restarts: int = 0

    def result(
        self, submit_time: float, end_time: float, killed: bool = False, site: Optional[str] = None
    ) -> JobResult:
        """This run, ended at ``end_time``, as the job's outcome."""
        return JobResult(
            job=self.request.job,
            submit_time=submit_time,
            start_time=self.start_time,
            end_time=end_time,
            processors=self.request.processors,
            killed=killed,
            restarts=self.restarts,
            site=site,
        )


def window_capacity(
    size: int, windows: Collection[Tuple[float, float, int]]
) -> Callable[[float, float], int]:
    """``min_capacity(start, end)`` for a ``size``-processor machine of which
    each ``(start, end, amount)`` window takes ``amount`` over ``[start, end)``.

    The result is the least capacity left at any instant of ``[start, end)``;
    a query with ``end <= start`` reads the capacity at ``start``.  ``windows``
    is read at every call, not copied, so a caller may keep appending to it.
    """

    def min_capacity(start: float, end: float) -> int:
        if not windows:
            return size
        boundaries = {start}
        for w_start, w_end, _amount in windows:
            if w_start < end and start < w_end:
                boundaries.add(max(start, w_start))
        minimum = size
        for t in boundaries:
            taken = sum(amount for w_start, w_end, amount in windows if w_start <= t < w_end)
            minimum = min(minimum, max(0, size - taken))
        return minimum

    return min_capacity


class SpaceSite:
    """One space-shared machine under one policy.

    Holds the :class:`~repro.machine.cluster.Machine`, the wait queue and the
    running jobs, and runs the scheduling pass.  The driver owns time and
    events: it appends arrivals to :attr:`queue`, starts what :meth:`select`
    returns and calls :meth:`finish` when a job ends or is killed.  ``label``
    prefixes the contract-violation messages (``"site a: "``).
    """

    def __init__(self, size: int, scheduler: Scheduler, label: str = "") -> None:
        self.machine = Machine(size=size)
        self.scheduler = scheduler
        self.label = label
        self.queue: List[JobRequest] = []
        self.running: Dict[int, _Running] = {}

    def state(
        self, now: float, min_capacity: Optional[Callable[[float, float], int]] = None
    ) -> SchedulerState:
        """The policy's snapshot of this machine at ``now``."""
        running_infos = [
            RunningJobInfo(
                request=r.request,
                start_time=r.start_time,
                expected_end=max(r.expected_end, now),
            )
            for r in self.running.values()
        ]
        return SchedulerState(
            now=now,
            total_processors=self.machine.size,
            free_processors=self.machine.free_count(),
            queue=list(self.queue),
            running=running_infos,
            min_capacity=min_capacity,
        )

    def select(
        self, now: float, min_capacity: Callable[[float, float], int]
    ) -> List[JobRequest]:
        """Ask the policy which queued jobs to start now, and dequeue them.

        The whole selection is checked before anything changes: every job
        must be queued, selected once, and together fit the free processors;
        a policy that breaks this raises :class:`RuntimeError`, so policy
        bugs surface in tests rather than as silently wrong results.

        A selection that is, object for object, the head of the queue (FCFS
        always; backfilling when nothing jumps ahead) is queued by
        construction, so it costs O(selected): only the duplicate and
        capacity checks run, and the head is cut off in place.  Any other
        selection is matched against the queue by job id.
        """
        state = self.state(now, min_capacity)
        selected = self.scheduler.select_jobs(state)
        if not selected:
            return []
        queue = self.queue
        prefix = len(selected) <= len(queue) and all(map(is_, selected, queue))
        queued_ids = None if prefix else {r.job_id for r in queue}
        selected_ids = set()
        total_requested = 0
        for request in selected:
            job_id = request.job_id
            if job_id in selected_ids or (queued_ids is not None and job_id not in queued_ids):
                raise RuntimeError(
                    f"{self.label}scheduler {self.scheduler.name!r} selected job "
                    f"{job_id} which is not in the wait queue"
                )
            selected_ids.add(job_id)
            total_requested += request.processors
        if total_requested > state.free_processors:
            raise RuntimeError(
                f"{self.label}scheduler {self.scheduler.name!r} over-committed the machine: "
                f"selected {total_requested} processors with {state.free_processors} free"
            )
        if prefix:
            del queue[: len(selected)]
        else:
            self.queue = [r for r in queue if r.job_id not in selected_ids]
        return selected

    def start(
        self, request: JobRequest, now: float, handle: Optional[int] = None, restarts: int = 0
    ) -> None:
        """Allocate processors to ``request`` and record it as running."""
        self.machine.allocate(request.job_id, request.processors)
        self.running[request.job_id] = _Running(
            request=request,
            start_time=now,
            expected_end=now + request.estimate,
            completion_handle=handle,
            restarts=restarts,
        )

    def finish(self, job_id: int) -> Optional[_Running]:
        """Take ``job_id`` off the machine; ``None`` if it is not running."""
        running = self.running.pop(job_id, None)
        if running is not None:
            self.machine.release(job_id)
        return running


class MachineSimulation:
    """One scheduler + one machine + one workload, simulated to completion."""

    def __init__(
        self,
        workload: Workload,
        scheduler: Scheduler,
        machine_size: Optional[int] = None,
        outages: Optional[OutageLog] = None,
        honor_dependencies: bool = False,
        restart_failed_jobs: bool = True,
        max_restarts: int = 10,
    ) -> None:
        self.workload = workload
        self.scheduler = scheduler
        size = machine_size or workload.header.max_nodes or workload.max_processors()
        if not size:
            raise ValueError("machine size is unknown: pass machine_size explicitly")
        self.site = SpaceSite(int(size), scheduler)
        self.outages = outages if outages is not None else OutageLog([])
        self.honor_dependencies = honor_dependencies
        self.restart_failed_jobs = restart_failed_jobs
        self.max_restarts = max_restarts

        self.sim = Simulator()
        #: per-run registry for deterministic scheduling counters; installed
        #: as the contextvar scope during :meth:`run` so schedulers' module-
        #: level ``count()`` calls land here.
        self._telemetry = Telemetry()
        self._passes = self._telemetry.counter("sched_passes")
        self._queue_depth = self._telemetry.gauge("max_queue_depth")
        self._jobs_started = self._telemetry.counter("jobs_started")
        self._results: List[JobResult] = []
        self._outage_kills = 0
        self._skipped_too_large = 0
        self._submit_times: Dict[int, float] = {}
        #: dependent jobs waiting for a predecessor to finish: pred id -> [(request, think)]
        self._waiting_on: Dict[int, List[Tuple[JobRequest, int]]] = {}
        self._released: set = set()
        self._restart_counts: Dict[int, int] = {}
        # Announced outages as (start, end, nodes) capacity windows: simulation
        # time only moves forward, so records are consumed from an
        # announce-time-sorted list exactly once instead of rescanning the
        # whole log every pass.
        self._by_announce = sorted(self.outages, key=lambda r: r.announced_time)
        self._announced: List[Tuple[int, int, int]] = []
        self._announce_index = 0
        self._min_capacity = window_capacity(self.site.machine.size, self._announced)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _seed_events(self) -> None:
        requests, self._skipped_too_large = admit(
            self.workload.summary_jobs(), self.site.machine.size
        )
        present = {r.job_id for r in requests}
        for request in requests:
            job = request.job
            if (
                self.honor_dependencies
                and job.has_dependency
                and job.preceding_job in present
            ):
                think = job.think_time if job.think_time != MISSING else 0
                self._waiting_on.setdefault(job.preceding_job, []).append((request, think))
            else:
                self.sim.schedule_at(
                    request.submit_time,
                    self._on_arrival,
                    request,
                    priority=_PRIORITY_ARRIVAL,
                )
        for record in self.outages:
            node_ids = self._outage_nodes(record)
            self.sim.schedule_at(
                record.start_time,
                self._on_outage_start,
                record,
                node_ids,
                priority=_PRIORITY_OUTAGE,
            )
            self.sim.schedule_at(
                record.end_time,
                self._on_outage_end,
                node_ids,
                priority=_PRIORITY_OUTAGE,
            )

    def _outage_nodes(self, record) -> List[int]:
        size = self.site.machine.size
        if record.components:
            return [c for c in record.components if 0 <= c < size]
        # Unspecified components: take the highest-numbered nodes, a stable
        # deterministic choice that keeps results reproducible.
        count = min(record.nodes_affected, size)
        return list(range(size - count, size))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: JobRequest) -> None:
        self.site.queue.append(request)
        self._submit_times.setdefault(request.job_id, self.sim.now)
        self._schedule_pass()

    def _on_completion(self, job_id: int) -> None:
        running = self.site.finish(job_id)
        if running is None:  # completion of a job killed by an outage
            return
        self._results.append(running.result(self._submit_times[job_id], self.sim.now))
        self._release_dependents(job_id)
        self._schedule_pass()

    def _release_dependents(self, job_id: int) -> None:
        if job_id in self._released:
            return
        self._released.add(job_id)
        for request, think in self._waiting_on.pop(job_id, []):
            self.sim.schedule(
                max(0, think),
                self._on_arrival,
                request,
                priority=_PRIORITY_ARRIVAL,
            )

    def _on_outage_start(self, record, node_ids: List[int]) -> None:
        victims = self.site.machine.fail_nodes(node_ids)
        for job_id in victims:
            running = self.site.finish(job_id)
            if running is None:
                continue
            self.sim.cancel(running.completion_handle)
            self._outage_kills += 1
            if self.restart_failed_jobs and running.restarts < self.max_restarts:
                # Restart from scratch: back into the queue at the current time.
                self.site.queue.append(replace(running.request, submit_time=int(self.sim.now)))
                self._restart_counts[job_id] = running.restarts + 1
            else:
                self._results.append(
                    running.result(self._submit_times[job_id], self.sim.now, killed=True)
                )
                self._release_dependents(job_id)
        self._schedule_pass()

    def _on_outage_end(self, node_ids: List[int]) -> None:
        self.site.machine.restore_nodes(node_ids)
        self._schedule_pass()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule_pass(self) -> None:
        site = self.site
        if not site.queue:
            return
        self._passes.inc()
        self._queue_depth.set_max(len(site.queue))
        now = self.sim.now
        while (
            self._announce_index < len(self._by_announce)
            and self._by_announce[self._announce_index].announced_time <= now
        ):
            record = self._by_announce[self._announce_index]
            self._announced.append((record.start_time, record.end_time, record.nodes_affected))
            self._announce_index += 1
        for request in site.select(now, self._min_capacity):
            self._jobs_started.inc()
            handle = self.sim.schedule(
                request.runtime,
                self._on_completion,
                request.job_id,
                priority=_PRIORITY_COMPLETION,
            )
            site.start(request, now, handle, self._restart_counts.get(request.job_id, 0))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the results."""
        with telemetry_scope(self._telemetry):
            self._seed_events()
            self.sim.run()
        counters = self._telemetry.as_counters()
        counters["events_processed"] = self.sim.processed_events
        counters["peak_event_queue"] = self.sim.peak_queue
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            machine_size=self.site.machine.size,
            jobs=sorted(self._results, key=lambda j: j.job_id),
            outage_kills=self._outage_kills,
            metadata={
                "skipped_too_large": self._skipped_too_large,
                "workload": self.workload.name,
                "honor_dependencies": self.honor_dependencies,
            },
            counters={k: int(v) for k, v in sorted(counters.items())},
        )
        if len(self.outages) > 0:
            from repro.core.outage.availability import AvailabilityTimeline

            timeline = AvailabilityTimeline(self.site.machine.size, self.outages)
            result.available_node_seconds = float(
                timeline.available_node_seconds(0, int(result.makespan) + 1)
            )
        return result


def simulate(
    workload: Workload,
    scheduler: Scheduler,
    machine_size: Optional[int] = None,
    outages: Optional[OutageLog] = None,
    honor_dependencies: bool = False,
    restart_failed_jobs: bool = True,
    max_restarts: int = 10,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`MachineSimulation` and run it."""
    return MachineSimulation(
        workload=workload,
        scheduler=scheduler,
        machine_size=machine_size,
        outages=outages,
        honor_dependencies=honor_dependencies,
        restart_failed_jobs=restart_failed_jobs,
        max_restarts=max_restarts,
    ).run()
