"""Unit and integration tests for the machine-scheduler evaluation driver."""

from __future__ import annotations

import pytest

from repro.core.outage import OutageLog, OutageRecord, OutageType
from repro.core.swf import MISSING
from repro.evaluation import MachineSimulation, simulate
from repro.schedulers import EasyBackfillScheduler, FCFSScheduler
from repro.schedulers.base import Scheduler
from tests.conftest import make_job, make_workload


class TestBasicReplay:
    def test_single_job_timing(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=8)])
        result = simulate(workload, FCFSScheduler(), machine_size=16)
        job = result.jobs[0]
        assert job.start_time == 0
        assert job.end_time == 100
        assert job.wait_time == 0

    def test_sequential_when_machine_full(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=16),
            make_job(2, submit=0, runtime=100, processors=16),
        ]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        by_id = result.by_job_id()
        assert by_id[1].start_time == 0
        assert by_id[2].start_time == 100
        assert by_id[2].wait_time == 100

    def test_parallel_when_machine_has_room(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=8),
            make_job(2, submit=0, runtime=100, processors=8),
        ]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        assert all(j.wait_time == 0 for j in result.jobs)

    def test_scheduler_sees_estimates_not_runtimes(self):
        seen = {}

        class Spy(Scheduler):
            name = "spy"

            def select_jobs(self, state):
                for request in state.queue:
                    seen[request.job_id] = request.estimate
                return list(state.queue)

        workload = make_workload(
            [make_job(1, submit=0, runtime=100, processors=4, requested_time=500)]
        )
        simulate(workload, Spy(), machine_size=16)
        assert seen[1] == 500

    def test_jobs_too_large_for_machine_are_skipped(self):
        jobs = [make_job(1, submit=0, runtime=10, processors=64), make_job(2, submit=0, runtime=10, processors=4)]
        result = simulate(make_workload(jobs), FCFSScheduler(), machine_size=16)
        assert len(result.jobs) == 1
        assert result.metadata["skipped_too_large"] == 1

    def test_machine_size_defaults_to_header(self, tiny_workload):
        result = simulate(tiny_workload, FCFSScheduler())
        assert result.machine_size == 32

    def test_unknown_machine_size_rejected(self):
        job = make_job(1, allocated_processors=MISSING, requested_processors=MISSING)
        workload = make_workload([job])
        workload.header.set("MaxNodes", "")
        with pytest.raises(ValueError):
            MachineSimulation(workload, FCFSScheduler())


class TestDependencies:
    def _chained_workload(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4),
            make_job(2, submit=10, runtime=50, processors=4, preceding_job=1, think_time=30),
        ]
        return make_workload(jobs)

    def test_open_replay_uses_absolute_submit_times(self):
        result = simulate(
            self._chained_workload(), FCFSScheduler(), machine_size=16, honor_dependencies=False
        )
        assert result.by_job_id()[2].submit_time == 10

    def test_closed_replay_waits_for_predecessor_and_think_time(self):
        result = simulate(
            self._chained_workload(), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        # Job 1 ends at 100; think time 30 -> job 2 is submitted at 130.
        assert result.by_job_id()[2].submit_time == 130

    def test_missing_think_time_treated_as_zero(self):
        jobs = [
            make_job(1, submit=0, runtime=100, processors=4),
            make_job(2, submit=10, runtime=50, processors=4, preceding_job=1, think_time=MISSING),
        ]
        result = simulate(
            make_workload(jobs), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        assert result.by_job_id()[2].submit_time == 100

    def test_dependency_on_absent_job_falls_back_to_absolute_time(self):
        jobs = [make_job(1, submit=5, runtime=10, processors=4, preceding_job=77, think_time=3)]
        result = simulate(
            make_workload(jobs), FCFSScheduler(), machine_size=16, honor_dependencies=True
        )
        assert result.by_job_id()[1].submit_time == 5


class TestOutages:
    def _maintenance(self, start, end, nodes, announced=None):
        return OutageLog(
            [
                OutageRecord(
                    announced_time=start if announced is None else announced,
                    start_time=start,
                    end_time=end,
                    outage_type=OutageType.MAINTENANCE,
                    nodes_affected=nodes,
                )
            ]
        )

    def test_job_killed_by_unannounced_outage_is_restarted(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        outages = self._maintenance(start=50, end=60, nodes=16)
        result = simulate(
            workload, FCFSScheduler(), machine_size=16, outages=outages, restart_failed_jobs=True
        )
        job = result.by_job_id()[1]
        assert result.outage_kills == 1
        assert job.restarts == 1
        assert not job.killed
        assert job.end_time > 100  # lost work plus the downtime

    def test_job_killed_without_restart_is_recorded_killed(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16)])
        outages = self._maintenance(start=50, end=60, nodes=16)
        result = simulate(
            workload, FCFSScheduler(), machine_size=16, outages=outages, restart_failed_jobs=False
        )
        job = result.by_job_id()[1]
        assert job.killed
        assert job.end_time == 50

    def test_outage_on_free_nodes_kills_nothing(self):
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=4)])
        outages = self._maintenance(start=10, end=20, nodes=4)
        # The outage takes the highest-numbered nodes; the job sits on the lowest.
        result = simulate(workload, FCFSScheduler(), machine_size=16, outages=outages)
        assert result.outage_kills == 0

    def test_outage_aware_scheduler_avoids_announced_window(self):
        # One job that would overlap a full-machine maintenance window.
        workload = make_workload([make_job(1, submit=0, runtime=100, processors=16, requested_time=100)])
        outages = self._maintenance(start=50, end=200, nodes=16, announced=0)
        aware = simulate(
            workload,
            EasyBackfillScheduler(outage_aware=True),
            machine_size=16,
            outages=outages,
        )
        blind = simulate(
            workload,
            EasyBackfillScheduler(outage_aware=False),
            machine_size=16,
            outages=outages,
        )
        assert aware.outage_kills == 0
        assert aware.by_job_id()[1].start_time >= 200
        assert blind.outage_kills == 1

    def test_available_node_seconds_recorded(self):
        workload = make_workload([make_job(1, submit=0, runtime=300, processors=4)])
        outages = self._maintenance(start=10, end=20, nodes=4)
        result = simulate(workload, FCFSScheduler(), machine_size=16, outages=outages)
        assert result.available_node_seconds is not None
        assert result.available_node_seconds < 16 * result.makespan + 1
