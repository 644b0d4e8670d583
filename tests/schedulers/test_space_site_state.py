"""The state a :class:`SpaceSite` keeps between passes, against a rebuild.

A site no longer rebuilds the policy's view on every pass: it builds each
job's :class:`RunningJobInfo` once when the job starts, keeps the sorted
release list up to date on every start and finish, and hands policies the
running-set changes since their last pass, which the free-space tracker
applies instead of diffing the running set.  After any sequence of
arrivals, passes, completions, kills and restarts, each of these must equal
what a from-scratch rebuild of the old per-pass snapshot gives, and the
tracker's patch, split and merge counts must equal the old diff's.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.simulator import SpaceSite
from repro.obs.telemetry import Telemetry, current_telemetry, telemetry_scope
from repro.schedulers.base import RunningJobInfo, Scheduler, SchedulerState
from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker
from tests.schedulers.util import make_request

SIZE = 32


class DiffTracker:
    """The tracker's former sync, which diffed the running set by job id
    (kept as the oracle for the order-dependent patch, split and merge
    counts)."""

    def __init__(self) -> None:
        self.fs = None
        self.known = {}

    def sync(self, state):
        now = state.now
        current = {
            info.request.job_id: (info.processors, max(info.expected_end, now))
            for info in state.running
        }
        patches = 0
        if self.fs is None:
            self.fs = FreeSpace(state.total_processors, now)
            for procs, end in current.values():
                self.fs.reserve(now, end, procs)
        else:
            fs = self.fs
            fs.advance(now)
            for job_id, (procs, end) in self.known.items():
                if job_id not in current and end > now:
                    fs.release(now, end, procs)
                    patches += 1
            for job_id, (procs, end) in current.items():
                old = self.known.get(job_id)
                if old is None:
                    if end > now:
                        fs.reserve(now, end, procs)
                        patches += 1
                elif old != (procs, end):
                    if old[1] > now:
                        fs.release(now, old[1], old[0])
                        patches += 1
                    if end > now:
                        fs.reserve(now, end, procs)
                        patches += 1
        self.known = current
        return self.fs, patches


class Idle(Scheduler):
    name = "idle"

    def select_jobs(self, state):
        return []


class Checker(Scheduler):
    """Checks each pass's state against a rebuild, then starts a random
    subset of the queued jobs that fit, in a random order (so selections
    take both the queue-head and the general dequeue path)."""

    name = "checker"

    def __init__(self, site: SpaceSite, seed: int) -> None:
        self.site = site
        self.rng = random.Random(seed)
        self.tracker = FreeSpaceTracker()
        self.oracle = DiffTracker()
        self.passes = 0

    def select_jobs(self, state: SchedulerState):
        self.passes += 1
        now = state.now
        rebuilt = [
            RunningJobInfo(
                request=r.request,
                start_time=r.info.start_time,
                expected_end=max(r.info.start_time + r.request.estimate, now),
            )
            for r in self.site.running.values()
        ]
        assert list(state.running) == rebuilt
        assert state.expected_completions() == sorted(
            (info.expected_end, info.processors) for info in rebuilt
        )
        assert state.queue is self.site.queue
        assert state.free_processors == SIZE - sum(info.processors for info in rebuilt)
        patches = current_telemetry().counter("profile_patches")
        before = patches.value()
        tracked = self.tracker.sync(state)
        assert tracked.segments() == FreeSpace.from_running(SIZE, now, rebuilt).segments()
        diffed, diff_patches = self.oracle.sync(state)
        assert tracked.segments() == diffed.segments()
        assert tracked.take_stats() == diffed.take_stats()
        assert patches.value() - before == diff_patches

        order = list(state.queue)
        self.rng.shuffle(order)
        free = state.free_processors
        selected = []
        for request in order:
            if request.processors <= free and self.rng.random() < 0.6:
                selected.append(request)
                free -= request.processors
        return selected


operation = st.tuples(
    st.sampled_from(["arrive", "arrive", "pass", "pass", "finish", "kill", "restart", "tick", "tick"]),
    st.integers(min_value=0, max_value=10**6),
)


def _replay(ops, seed: int, site_class=SpaceSite):
    site = site_class(SIZE, Idle())
    checker = Checker(site, seed)
    site.scheduler = checker
    now = 0.0
    next_id = 1
    for kind, value in ops:
        if kind == "tick":
            step = value % 50
            if not site.holds_overruns:
                # A plain machine completes every job by its expected end.
                ends = [r.info.expected_end for r in site.running.values()]
                step = min([step] + [end - now for end in ends])
            now += step
        elif kind == "arrive":
            procs = 1 + value % 12
            runtime = 1 + value % 97
            estimate = runtime + value % 131
            site.enqueue(make_request(next_id, procs, runtime=runtime, estimate=estimate))
            next_id += 1
        elif kind == "pass":
            for request in site.select(now, lambda start, end: SIZE):
                site.start(request, now)
        elif site.running:
            # A completion, or an outage's kill with or without a restart:
            # to the site, each is a finish.
            job_id = list(site.running)[value % len(site.running)]
            running = site.finish(job_id)
            if kind == "restart":
                site.enqueue(replace(running.request, submit_time=int(now)))
    # One last pass sees whatever the operations left behind.
    site.enqueue(make_request(next_id, 1))
    site.select(now, lambda start, end: SIZE)
    return checker


class GridLikeSite(SpaceSite):
    holds_overruns = True


class TestKeptStateMatchesRebuild:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(operation, min_size=30, max_size=120), seed=st.integers(0, 2**16))
    def test_plain_machine(self, ops, seed):
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            checker = _replay(ops, seed)
        # The first pass builds the profile; every later one is patched.
        assert telemetry.as_counters().get("profile_builds") == 1
        assert checker.passes >= 1

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(operation, min_size=30, max_size=120), seed=st.integers(0, 2**16))
    def test_site_holding_overruns(self, ops, seed):
        # Time may pass a running job's expected end; the policy then sees
        # it as ending now, as the old per-pass clamp did.
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            _replay(ops, seed, GridLikeSite)
        assert telemetry.as_counters().get("profile_builds") == 1


class TestOverrunInvariant:
    def test_plain_machine_rejects_a_job_past_its_expected_end(self):
        site = SpaceSite(SIZE, Idle(), label="m: ")
        site.start(make_request(7, 4, runtime=10, estimate=10), 0.0)
        site.enqueue(make_request(8, 4))
        with pytest.raises(RuntimeError, match="^m: job 7 is still running at 11.0, past its expected end 10"):
            site.state(11.0)

    def test_job_ending_now_is_not_an_overrun(self):
        site = SpaceSite(SIZE, Idle())
        site.start(make_request(7, 4, runtime=10, estimate=10), 0.0)
        assert site.state(10.0).expected_completions() == [(10.0, 4)]


class TestRunningChanges:
    def _site(self) -> SpaceSite:
        class Recorder(Scheduler):
            name = "recorder"

            def __init__(self) -> None:
                self.seen: List = []

            def select_jobs(self, state):
                changes = state.changes
                self.seen.append(
                    (
                        changes.serial,
                        [i.request.job_id for i in changes.started],
                        [i.request.job_id for i in changes.finished],
                    )
                )
                return []

        return SpaceSite(SIZE, Recorder())

    def test_finished_in_running_order_and_netted_starts(self):
        site = self._site()
        for job_id in (1, 2, 3):
            site.start(make_request(job_id, 2), 0.0)
        site.enqueue(make_request(9, 1))
        site.select(0.0, lambda s, e: SIZE)
        site.start(make_request(4, 2), 0.0)  # started after the pass ...
        site.finish(4)  # ... and finished before the next: never reported
        site.finish(3)
        site.finish(1)
        site.start(make_request(5, 2), 1.0)
        site.select(1.0, lambda s, e: SIZE)
        assert site.scheduler.seen == [(1, [1, 2, 3], []), (2, [5], [1, 3])]

    def test_tracker_rebuilds_on_another_site_or_a_missed_pass(self):
        class Tracking(Scheduler):
            name = "tracking"

            def __init__(self) -> None:
                self.tracker = FreeSpaceTracker()
                self.skip = False
                self.matches: List[bool] = []

            def select_jobs(self, state):
                if not self.skip:
                    tracked = self.tracker.sync(state)
                    fresh = FreeSpace.from_running(SIZE, state.now, state.running)
                    self.matches.append(tracked.segments() == fresh.segments())
                return []

        policy = Tracking()
        a, b = SpaceSite(SIZE, policy), SpaceSite(SIZE, policy)
        a.start(make_request(1, 4, runtime=50), 0.0)
        a.enqueue(make_request(2, 1))
        b.start(make_request(3, 8, runtime=20), 0.0)
        b.enqueue(make_request(4, 1))
        telemetry = Telemetry()
        with telemetry_scope(telemetry):
            a.select(0.0, lambda s, e: SIZE)  # build
            b.select(1.0, lambda s, e: SIZE)  # another site: build
            a.select(2.0, lambda s, e: SIZE)  # back to a: build
            a.start(make_request(5, 2, runtime=9), 2.0)
            a.select(3.0, lambda s, e: SIZE)  # a's next pass: patched
            policy.skip = True
            a.finish(5)
            a.select(4.0, lambda s, e: SIZE)  # the tracker misses this pass ...
            policy.skip = False
            a.finish(1)
            a.select(5.0, lambda s, e: SIZE)  # ... so it builds again
        assert policy.matches == [True] * 5
        assert telemetry.as_counters()["profile_builds"] == 4
