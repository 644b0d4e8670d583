"""The scheduling contract, enforced the same way under both event drivers.

A policy's selection must be queued jobs, each selected once, that together
fit the free processors.  :meth:`repro.evaluation.simulator.SpaceSite.select`
checks this for the single-machine driver and for every grid site, and must
reject a violation before any job starts.
"""

from __future__ import annotations

import pytest

from repro.evaluation import MachineSimulation
from repro.grid import GridSimulation, LeastLoadedMetaScheduler, Site
from repro.schedulers.base import JobRequest, Scheduler
from tests.conftest import make_job, make_workload

SIZE = 16


class OverCommitter(Scheduler):
    """Waits for two jobs, then starts both whatever the capacity."""

    name = "over-committer"

    def select_jobs(self, state):
        return list(state.queue) if len(state.queue) > 1 else []


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
        (Phantom, "not in the wait queue"),
        (Doubler, "not in the wait queue"),
    ],
    ids=["over-commit", "phantom", "duplicate"],
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
