"""Scheduler interface and the data structures shared by all policies.

Both event drivers, the evaluation driver (:mod:`repro.evaluation.simulator`)
and each site of the grid (:mod:`repro.grid.simulation`), run a machine
through :class:`repro.evaluation.simulator.SpaceSite`: at every job arrival,
job completion, or outage event
:meth:`~repro.evaluation.simulator.SpaceSite.state` hands the policy a
:class:`SchedulerState` view of the machine and asks which queued jobs to
start *now*.  Policies never see actual runtimes — only the user estimate
(field 9 of the SWF, falling back to the actual runtime when no estimate is
recorded), exactly the information a production scheduler has.

The piecewise-constant "free processors over future time" function that
backfilling and advance reservations reason about is the slot-set
:class:`repro.schedulers.freespace.FreeSpace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, List, Optional, Tuple

from repro.core.swf.fields import MISSING
from repro.core.swf.records import SWFJob

__all__ = [
    "JobRequest",
    "admit",
    "RunningChanges",
    "RunningJobInfo",
    "SchedulerState",
    "Scheduler",
]


@dataclass(frozen=True)
class JobRequest:
    """What the scheduler knows about a job (plus the hidden actual runtime).

    Attributes
    ----------
    job:
        The underlying SWF record.
    processors:
        Processors the job needs (requested count, falling back to allocated).
    runtime:
        The *actual* runtime; used by the simulator to schedule the completion
        event, never exposed to policies through :class:`SchedulerState`.
    estimate:
        The user's runtime estimate (requested time); what policies may use.
    submit_time:
        Arrival time in the simulation (seconds).
    """

    job: SWFJob
    processors: int
    runtime: int
    estimate: int
    submit_time: int

    @property
    def job_id(self) -> int:
        return self.job.job_number

    @classmethod
    def from_swf(cls, job: SWFJob) -> "JobRequest":
        """Build a request from an SWF record, applying the standard fallbacks."""
        processors = job.processors
        if processors == MISSING or processors < 1:
            raise ValueError(f"job {job.job_number} has no usable processor count")
        runtime = job.run_time if job.run_time != MISSING else 0
        estimate = job.requested_time if job.requested_time != MISSING else runtime
        if estimate < runtime:
            # Production schedulers kill jobs that exceed their request; the
            # archive logs keep the recorded runtime, so treat the estimate as
            # a lower bound rather than modelling the kill here.
            estimate = runtime
        submit = job.submit_time if job.submit_time != MISSING else 0
        return cls(
            job=job,
            processors=int(processors),
            runtime=int(runtime),
            estimate=int(max(estimate, 0)),
            submit_time=int(submit),
        )


def admit(jobs: Iterable[SWFJob], machine_size: int) -> Tuple[List[JobRequest], int]:
    """Requests for the jobs a machine of ``machine_size`` can run, and how
    many were skipped: no usable processor count, or wider than the machine.

    SWF job numbers are unique, and the drivers key their wait queue by job
    number, so a repeated number raises :class:`ValueError`.
    """
    requests = []
    skipped = 0
    seen = set()
    for job in jobs:
        number = job.job_number
        if number in seen:
            raise ValueError(f"job number {number} appears more than once in the workload")
        seen.add(number)
        try:
            request = JobRequest.from_swf(job)
        except ValueError:
            skipped += 1
            continue
        if request.processors > machine_size:
            skipped += 1
            continue
        requests.append(request)
    return requests, skipped


@dataclass(frozen=True)
class RunningJobInfo:
    """A job currently executing, as visible to the scheduler."""

    request: JobRequest
    start_time: float
    expected_end: float

    @property
    def processors(self) -> int:
        return self.request.processors


@dataclass
class RunningChanges:
    """How a machine's running set changed since its previous scheduling pass.

    ``finished`` holds the jobs that left the running set (completed or
    killed), in the order they held in it; ``started`` the jobs that joined
    it, in start order.  A job that started and finished between the two
    passes is in neither.  ``source`` names the machine and ``serial``
    numbers its passes from 1, so a consumer can tell whether it has seen
    every earlier pass of this machine.
    """

    # Slots make the one-per-pass construction cheap.
    __slots__ = ("source", "serial", "started", "finished")

    source: int
    serial: int
    started: List[RunningJobInfo]
    finished: List[RunningJobInfo]


@dataclass
class SchedulerState:
    """What a policy sees of the machine at one scheduling point.

    The driver hands a *view* of its own state, not a copy: ``queue`` is
    the live wait queue, ``running`` a live view of the running jobs (in
    start order; iterate it, do not index it) and ``completions`` their
    live sorted release list.  It refreshes one state object in place for
    every pass, so a state is valid for the pass it was handed to.  A
    policy reads it and returns its selection; it must not change it (the
    driver checks that the queue's length and head are unchanged after
    every pass).  Hand-built states may pass plain lists and leave
    ``completions`` and ``changes`` out.
    """

    now: float
    total_processors: int
    free_processors: int
    queue: List[JobRequest]
    running: Collection[RunningJobInfo]
    #: min available capacity over a future window, considering *announced*
    #: outages only; defaults to the constant total capacity.
    min_capacity: Callable[[float, float], int] = None  # type: ignore[assignment]
    #: the running-set changes since this machine's previous pass, when the
    #: driver keeps them (see :class:`RunningChanges`)
    changes: Optional[RunningChanges] = None
    #: (expected end, processors) of the running jobs, sorted; computed from
    #: ``running`` on first use when not given
    completions: Optional[List[Tuple[float, int]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.min_capacity is None:
            total = self.total_processors
            self.min_capacity = lambda start, end: total

    def expected_completions(self) -> List[Tuple[float, int]]:
        """(expected end, processors) for running jobs, sorted by end time."""
        if self.completions is None:
            self.completions = sorted((r.expected_end, r.processors) for r in self.running)
        return self.completions


class Scheduler(ABC):
    """Base class for machine-scheduling policies.

    Subclasses implement :meth:`select_jobs`, returning the queued jobs to
    start immediately.  The returned jobs must collectively fit in the free
    processors reported by the state; the driver enforces this and raises if
    a policy misbehaves, so policy bugs surface in tests rather than as
    silently wrong results.
    """

    #: human-readable policy name (used in experiment tables)
    name: str = "scheduler"
    #: simulator the policy plugs into: ``"space"`` policies implement
    #: :meth:`select_jobs` for the event-driven space-sharing driver; other
    #: registered policy classes declare ``"gang"`` or ``"grid"`` and are
    #: dispatched by :func:`repro.api.runner.run` to their own simulators.
    mode: str = "space"
    #: if True, the policy consults announced outages via ``state.min_capacity``
    outage_aware: bool = False

    @abstractmethod
    def select_jobs(self, state: SchedulerState) -> List[JobRequest]:
        """Return the queued jobs to start at ``state.now``."""

    # ------------------------------------------------------------------
    # helpers shared by concrete policies
    # ------------------------------------------------------------------
    def job_fits_now(self, state: SchedulerState, request: JobRequest, free: int) -> bool:
        """Whether ``request`` can start now given ``free`` processors.

        Outage-aware policies additionally require that the announced
        capacity stays sufficient for the whole estimated duration, i.e. the
        machine is drained ahead of known maintenance windows.
        """
        if request.processors > free:
            return False
        if self.outage_aware:
            horizon_capacity = state.min_capacity(state.now, state.now + request.estimate)
            used_by_others = state.total_processors - free
            if request.processors > horizon_capacity - used_by_others:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
