"""The scheduling contract, enforced the same way under both event drivers.

A policy's selection must be queued jobs, each selected once, that together
fit the free processors.  :meth:`repro.evaluation.simulator.SpaceSite.select`
checks this for the single-machine driver and for every grid site, and must
reject a violation before any job starts.  A selection that is the head of
the queue takes a shorter path than any other selection; both paths are
held to the whole contract here, and so is the rule that a policy leaves
the live wait queue it is handed as it found it.
"""

from __future__ import annotations

import pytest

from repro.evaluation import MachineSimulation
from repro.evaluation.simulator import SpaceSite
from repro.grid import GridSimulation, LeastLoadedMetaScheduler, Site
from repro.schedulers.base import JobRequest, Scheduler
from tests.conftest import make_job, make_workload

SIZE = 16


class OverCommitter(Scheduler):
    """Waits for two jobs, then starts both whatever the capacity: the
    selection is the head of the queue."""

    name = "over-committer"

    def select_jobs(self, state):
        return list(state.queue) if len(state.queue) > 1 else []


class ReversedOverCommitter(Scheduler):
    """Waits for two jobs, then starts both out of queue order."""

    name = "reversed-over-committer"

    def select_jobs(self, state):
        return list(reversed(state.queue)) if len(state.queue) > 1 else []


class Phantom(Scheduler):
    """Starts a job that was never queued."""

    name = "phantom"

    def select_jobs(self, state):
        ghost = make_job(99, processors=1)
        return [JobRequest(job=ghost, processors=1, runtime=1, estimate=1, submit_time=0)]


class Doubler(Scheduler):
    """Starts the head of the queue twice."""

    name = "doubler"

    def select_jobs(self, state):
        return [state.queue[0], state.queue[0]]


class HeadPair(Scheduler):
    """Waits for two jobs, then starts the first two: the head of the queue."""

    name = "head-pair"

    def select_jobs(self, state):
        return state.queue[:2] if len(state.queue) > 1 else []


class HeadPopper(Scheduler):
    """Takes the head off the live queue itself and starts it."""

    name = "head-popper"

    def select_jobs(self, state):
        return [state.queue.pop(0)]


class Reorderer(Scheduler):
    """Waits for two jobs, then sorts the live queue widest first and starts nothing."""

    name = "reorderer"

    def select_jobs(self, state):
        if len(state.queue) > 1:
            state.queue.sort(key=lambda r: -r.processors)
        return []


def _machine(workload, scheduler):
    simulation = MachineSimulation(workload, scheduler, machine_size=SIZE)
    return simulation, simulation.site


def _grid(workload, scheduler):
    site = Site(name="s0", machine_size=SIZE, scheduler=scheduler, local_workload=workload)
    grid = GridSimulation([site], [], LeastLoadedMetaScheduler())
    return grid, grid.sites["s0"]


@pytest.mark.parametrize("driver", [_machine, _grid], ids=["machine", "grid"])
@pytest.mark.parametrize(
    "scheduler, message",
    [
        (OverCommitter, "over-committed"),
        (ReversedOverCommitter, "over-committed"),
        (Phantom, "not in the wait queue"),
        (Doubler, "not in the wait queue"),
    ],
    ids=["over-commit", "over-commit-reordered", "phantom", "duplicate"],
)
def test_violation_rejected_before_any_start(driver, scheduler, message):
    jobs = [make_job(1, submit=0, processors=12), make_job(2, submit=0, processors=12)]
    simulation, site = driver(make_workload(jobs), scheduler())
    with pytest.raises(RuntimeError, match=message):
        simulation.run()
    assert site.running == {}
    assert site.machine.free_count() == SIZE


def test_grid_violation_names_the_site():
    simulation, _site = _grid(make_workload([make_job(1, processors=4)]), Doubler())
    with pytest.raises(RuntimeError, match="^site s0: scheduler 'doubler' selected job 1 "):
        simulation.run()


@pytest.mark.parametrize("driver", [_machine, _grid], ids=["machine", "grid"])
@pytest.mark.parametrize(
    "scheduler",
    [HeadPopper, Reorderer],
    ids=["pop-head", "reorder"],
)
def test_queue_mutating_policy_rejected(driver, scheduler):
    jobs = [make_job(1, submit=0, processors=2), make_job(2, submit=0, processors=12)]
    policy = scheduler()
    simulation, site = driver(make_workload(jobs), policy)
    with pytest.raises(RuntimeError, match=f"scheduler {policy.name!r} changed the wait queue"):
        simulation.run()
    assert site.running == {}
    assert site.machine.free_count() == SIZE


@pytest.mark.parametrize("driver", [_machine, _grid], ids=["machine", "grid"])
def test_repeated_job_numbers_rejected_at_admission(driver):
    # SWF job numbers are unique and the wait queue is keyed by them, so a
    # workload that repeats one is refused before anything is queued.
    jobs = [make_job(1, submit=0, processors=4), make_job(1, submit=0, processors=4)]
    with pytest.raises(ValueError, match="job number 1 appears more than once"):
        simulation, _site = driver(make_workload(jobs), HeadPair())
        simulation.run()


def test_head_selection_of_one_request_twice_rejected():
    # One queued request cannot be queued again, and selecting it twice,
    # [queue[0], queue[0]], is rejected with the queue left as it was.
    site = SpaceSite(SIZE, Doubler())
    request = JobRequest(job=make_job(1), processors=2, runtime=1, estimate=1, submit_time=0)
    site.enqueue(request)
    with pytest.raises(ValueError, match="job 1 is already in the wait queue"):
        site.enqueue(request, front=True)
    with pytest.raises(RuntimeError, match="selected job 1 which is not in the wait queue"):
        site.select(0.0, lambda start, end: SIZE)
    assert site.queue == [request]
    assert site.running == {}


def test_head_and_other_selections_dequeue_what_they_select():
    requests = [
        JobRequest(job=make_job(i), processors=1, runtime=1, estimate=1, submit_time=0)
        for i in (1, 2, 3, 4)
    ]

    class Pick(Scheduler):
        name = "pick"

        def __init__(self, positions):
            super().__init__()
            self.positions = positions

        def select_jobs(self, state):
            return [state.queue[i] for i in self.positions]

    for positions, left in [((0, 1), [3, 4]), ((0, 2), [2, 4]), ((1,), [1, 3, 4])]:
        site = SpaceSite(SIZE, Pick(positions))
        for request in requests:
            site.enqueue(request)
        selected = site.select(0.0, lambda start, end: SIZE)
        assert [r.job_id for r in selected] == [requests[i].job_id for i in positions]
        assert [r.job_id for r in site.queue] == left
