"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.engine
from repro.simulation import Simulator
from repro.simulation.engine import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.schedule(5.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_clock_advances_to_last_event(self):
        sim = Simulator()
        sim.schedule(7.5, lambda: None)
        sim.run()
        assert sim.now == 7.5

    def test_same_time_priority_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "low-priority", priority=5)
        sim.schedule(1.0, fired.append, "high-priority", priority=0)
        sim.run()
        assert fired == ["high-priority", "low-priority"]

    def test_same_time_same_priority_is_fifo(self):
        sim = Simulator()
        fired = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: sim.schedule_at(150.0, fired.append, sim.now))
        sim.run()
        assert fired == [100.0]
        assert sim.now == 150.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        errors = []

        def at_fifty():
            with pytest.raises(SimulationError) as info:
                sim.schedule_at(10.0, lambda: None)
            errors.append(info.value)

        sim.schedule_at(50.0, at_fifty)
        sim.run()
        assert len(errors) == 1
        assert sim.processed_events == 1

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            with pytest.raises(SimulationError) as info:
                sim.run()
            errors.append(info.value)

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2
        assert len(errors) == 1

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(5.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 6.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(2.0, fired.append, "kept")
        sim.cancel(handle)
        sim.run()
        assert fired == ["kept"]
        assert sim.now == 2.0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.run() == 0

    def test_cancel_from_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(5.0, fired.append, "later")
        sim.schedule(1.0, sim.cancel, later)
        assert sim.run() == 1
        assert fired == []

    def test_peak_queue_counts_cancelled_entries(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        sim.cancel(handles[0])
        sim.cancel(handles[2])
        sim.schedule(10.0, lambda: None)
        assert sim.run() == 2
        assert sim.processed_events == 2
        assert sim.peak_queue == 4


class TestRunControl:
    def test_processed_event_count(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_equal_times_preserve_insertion_order(self, values):
        sim = Simulator()
        fired = []
        for value in values:
            sim.schedule(1.0, fired.append, value)
        sim.run()
        assert fired == values


def test_module_doctest():
    failures, tried = doctest.testmod(repro.simulation.engine)
    assert tried > 0
    assert failures == 0
