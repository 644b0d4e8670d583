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

from bisect import bisect_left, insort
from dataclasses import dataclass, replace
import itertools
from operator import is_, itemgetter
from typing import Callable, Collection, Dict, List, Optional, Tuple

from repro.core.outage.log import OutageLog
from repro.core.swf.fields import MISSING
from repro.core.swf.workload import Workload
from repro.evaluation.results import JobResult, SimulationResult
from repro.machine.cluster import Machine
from repro.obs.telemetry import Telemetry, telemetry_scope
from repro.schedulers.base import (
    JobRequest,
    RunningChanges,
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

#: numbers each SpaceSite, so a policy can tell whose running-set changes it sees
_site_ids = itertools.count()


@dataclass
class _Running:
    __slots__ = ("info", "seq", "completion_handle", "restarts")

    #: the policy's view of this run, built once when it starts
    info: RunningJobInfo
    #: start order on its site: the running set's order for the tracker feed
    seq: int
    #: engine handle of the completion event, for drivers that cancel it
    completion_handle: Optional[int]
    restarts: int

    @property
    def request(self) -> JobRequest:
        return self.info.request

    def result(
        self, submit_time: float, end_time: float, killed: bool = False, site: Optional[str] = None
    ) -> JobResult:
        """This run, ended at ``end_time``, as the job's outcome."""
        request = self.info.request
        return JobResult(
            job=request.job,
            submit_time=submit_time,
            start_time=self.info.start_time,
            end_time=end_time,
            processors=request.processors,
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
    events: it adds arrivals with :meth:`enqueue`, starts what :meth:`select`
    returns and calls :meth:`finish` when a job ends or is killed.  ``label``
    prefixes the contract-violation messages (``"site a: "``).

    The site keeps, up to date on every start and finish, what a pass hands
    the policy: the queue itself, one :class:`RunningJobInfo` per running
    job, the sorted release list and the running-set changes since the last
    pass.  So a pass costs no copy of the queue and no rebuild of the
    running set.
    """

    #: Whether a job may keep running past its expected end.  On a plain
    #: machine it cannot (every estimate is at least the runtime), and a
    #: pass that finds one raises.  A grid site holds a co-allocated meta
    #: component until all its partners start, so there the policy sees
    #: such a job as ending now.
    holds_overruns = False

    def __init__(self, size: int, scheduler: Scheduler, label: str = "") -> None:
        self.machine = Machine(size=size)
        self.scheduler = scheduler
        self.label = label
        self._queue: List[JobRequest] = []
        #: job id -> queued request
        self._queued: Dict[int, JobRequest] = {}
        self.running: Dict[int, _Running] = {}
        #: job id -> running job's info, in start order; policies get a live view
        self._infos: Dict[int, RunningJobInfo] = {}
        #: (expected end, processors) of the running jobs, sorted
        self._completions: List[Tuple[float, int]] = []
        # The running-set changes since the last pass: starts in order, and
        # finishes as (start seq, info).  Starts with a seq above
        # _seq_at_pass happened after the last pass was cut.
        self._source = next(_site_ids)
        self._passes = 0
        self._seq = 0
        self._seq_at_pass = 0
        self._started: List[RunningJobInfo] = []
        self._finished: List[Tuple[int, RunningJobInfo]] = []
        self._state = SchedulerState(
            now=0.0,
            total_processors=size,
            free_processors=size,
            queue=self._queue,
            running=self._infos.values(),
        )
        self._full_capacity = self._state.min_capacity

    @property
    def queue(self) -> List[JobRequest]:
        """The wait queue, in order.  Live and read-only: it changes only
        through :meth:`enqueue` and :meth:`select`."""
        return self._queue

    def enqueue(self, request: JobRequest, front: bool = False) -> None:
        """Add ``request`` at the back of the wait queue, or at its front."""
        job_id = request.job_id
        if job_id in self._queued:
            raise ValueError(f"{self.label}job {job_id} is already in the wait queue")
        self._queued[job_id] = request
        if front:
            self._queue.insert(0, request)
        else:
            self._queue.append(request)

    def state(
        self,
        now: float,
        min_capacity: Optional[Callable[[float, float], int]] = None,
        changes: Optional[RunningChanges] = None,
    ) -> SchedulerState:
        """The policy's view of this machine at ``now``.

        One :class:`SchedulerState` per site, refreshed in place: a state is
        valid for the pass it was handed to.
        """
        running = self._infos.values()
        completions = self._completions
        if completions and completions[0][0] < now:
            running, completions = self._overrun_view(running, now)
        state = self._state
        state.now = now
        state.free_processors = self.machine.free_count()
        state.running = running
        state.min_capacity = self._full_capacity if min_capacity is None else min_capacity
        state.changes = changes
        state.completions = completions
        return state

    def _overrun_view(
        self, running: Collection[RunningJobInfo], now: float
    ) -> Tuple[List[RunningJobInfo], List[Tuple[float, int]]]:
        """The running set with every overrun's expected end moved to ``now``."""
        if not self.holds_overruns:
            late = next(info for info in running if info.expected_end < now)
            raise RuntimeError(
                f"{self.label}job {late.request.job_id} is still running at {now}, past "
                f"its expected end {late.expected_end}"
            )
        running = [
            info if info.expected_end >= now else replace(info, expected_end=now)
            for info in running
        ]
        return running, sorted((info.expected_end, info.processors) for info in running)

    def select(
        self, now: float, min_capacity: Callable[[float, float], int]
    ) -> List[JobRequest]:
        """Ask the policy which queued jobs to start now, and dequeue them.

        The whole selection is checked before anything changes: every job
        must be queued, selected once, and together fit the free processors;
        and the policy must have left the queue as it found it (same length,
        same head).  A policy that breaks this raises :class:`RuntimeError`,
        so policy bugs surface in tests rather than as silently wrong results.

        A selection that is, object for object, the head of the queue (FCFS
        always; backfilling when nothing jumps ahead) is queued by
        construction and cut off in place.  Any other selection is matched
        against the queued jobs by job id.
        """
        self._passes += 1
        finished = self._finished
        if finished:
            if len(finished) > 1:
                finished.sort(key=itemgetter(0))
            finished = [info for _, info in finished]
        changes = RunningChanges(self._source, self._passes, self._started, finished)
        self._started = []
        self._finished = []
        self._seq_at_pass = self._seq
        state = self.state(now, min_capacity, changes)
        queue = self._queue
        depth = len(queue)
        head = queue[0] if depth else None
        selected = self.scheduler.select_jobs(state)
        if len(queue) != depth or (depth and queue[0] is not head):
            raise RuntimeError(
                f"{self.label}scheduler {self.scheduler.name!r} changed the wait queue; "
                f"a policy must return its selection and leave the queue alone"
            )
        if not selected:
            return []
        queued = self._queued
        prefix = len(selected) <= depth and all(map(is_, selected, queue))
        selected_ids = set()
        total_requested = 0
        for request in selected:
            job_id = request.job_id
            if job_id in selected_ids or (not prefix and job_id not in queued):
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
            queue[:] = [r for r in queue if r.job_id not in selected_ids]
        for job_id in selected_ids:
            del queued[job_id]
        return selected

    def start(
        self, request: JobRequest, now: float, handle: Optional[int] = None, restarts: int = 0
    ) -> None:
        """Allocate processors to ``request`` and record it as running."""
        job_id = request.job_id
        self.machine.allocate(job_id, request.processors)
        info = RunningJobInfo(request, now, now + request.estimate)
        self._seq += 1
        self.running[job_id] = _Running(info, self._seq, handle, restarts)
        self._infos[job_id] = info
        insort(self._completions, (info.expected_end, request.processors))
        self._started.append(info)

    def finish(self, job_id: int) -> Optional[_Running]:
        """Take ``job_id`` off the machine; ``None`` if it is not running."""
        running = self.running.pop(job_id, None)
        if running is None:
            return None
        self.machine.release(job_id)
        info = running.info
        del self._infos[job_id]
        completions = self._completions
        del completions[bisect_left(completions, (info.expected_end, info.processors))]
        if running.seq > self._seq_at_pass:
            # Started since the last pass: the next pass never sees it.
            started = self._started
            for i, other in enumerate(started):
                if other is info:
                    del started[i]
                    break
        else:
            self._finished.append((running.seq, info))
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
        # The driver's own counters, kept as plain ints and folded into the
        # registry once, when the run ends.
        self._passes = 0
        self._max_queue_depth = 0
        self._jobs_started = 0
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
        self.site.enqueue(request)
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
                self.site.enqueue(replace(running.request, submit_time=int(self.sim.now)))
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
        self._passes += 1
        depth = len(site.queue)
        if depth > self._max_queue_depth:
            self._max_queue_depth = depth
        now = self.sim.now
        while (
            self._announce_index < len(self._by_announce)
            and self._by_announce[self._announce_index].announced_time <= now
        ):
            record = self._by_announce[self._announce_index]
            self._announced.append((record.start_time, record.end_time, record.nodes_affected))
            self._announce_index += 1
        for request in site.select(now, self._min_capacity):
            self._jobs_started += 1
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
        telemetry = self._telemetry
        if self._passes:
            telemetry.counter("sched_passes").inc(self._passes)
            telemetry.gauge("max_queue_depth").set_max(self._max_queue_depth)
        if self._jobs_started:
            telemetry.counter("jobs_started").inc(self._jobs_started)
        counters = telemetry.as_counters()
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
