"""Tests for the span tracer: scoping, nesting, grafting, Chrome export."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.obs.trace as trace_module
from repro.obs.trace import (
    Tracer,
    chrome_trace,
    chrome_trace_text,
    current_span_id,
    current_tracer,
    phase,
    trace_scope,
    trace_span,
)


class FakeClock:
    """A deterministic clock: every reading advances by ``step`` seconds."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def fake_tracer(step: float = 1.0, wall_epoch: float = 1000.0, **kwargs) -> Tracer:
    return Tracer(clock=FakeClock(step=step), wall=lambda: wall_epoch, **kwargs)


class TestScoping:
    def test_no_scope_is_a_no_op(self):
        assert current_tracer() is None
        assert current_span_id() is None
        with trace_span("anything", key="value"):
            assert current_tracer() is None  # still no scope

    def test_scope_installs_and_restores(self):
        tracer = fake_tracer()
        with trace_scope(tracer):
            assert current_tracer() is tracer
            assert current_span_id() is None  # no open span yet
        assert current_tracer() is None

    def test_scopes_nest_and_restore(self):
        outer, inner = fake_tracer(), fake_tracer()
        with trace_scope(outer):
            with trace_scope(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer

    def test_trace_span_records_on_active_tracer(self):
        tracer = fake_tracer()
        with trace_scope(tracer):
            with trace_span("phase.one", detail=7):
                pass
        assert [s.name for s in tracer.spans] == ["phase.one"]
        assert tracer.spans[0].attributes == {"detail": 7}


class TestPhase:
    @pytest.fixture(autouse=True)
    def fake_perf_counter(self, monkeypatch):
        # Every perf_counter reading inside phase() advances by 0.5 s.
        monkeypatch.setattr(
            trace_module, "time", SimpleNamespace(perf_counter=FakeClock(step=0.5))
        )

    def test_accumulates_without_a_tracer(self):
        timings = {"load_seconds": 1.0}
        with phase(timings, "load_seconds", "phase.load", detail=1):
            assert current_tracer() is None
        with phase(timings, "load_seconds", "phase.load"):
            pass
        with phase(timings, "fresh_seconds", "phase.fresh"):
            pass
        assert timings == {"load_seconds": 2.0, "fresh_seconds": 0.5}

    def test_records_one_named_span_under_a_tracer(self):
        tracer = fake_tracer()
        timings = {}
        with trace_scope(tracer):
            with phase(timings, "load_seconds", "phase.load", detail=7):
                pass
        assert [(s.name, s.attributes) for s in tracer.spans] == [
            ("phase.load", {"detail": 7})
        ]
        assert timings == {"load_seconds": 0.5}

    def test_failed_body_still_records_its_time(self):
        tracer = fake_tracer()
        timings = {}
        with pytest.raises(RuntimeError):
            with phase(timings, "load_seconds", "phase.bare"):
                raise RuntimeError("boom")
        with trace_scope(tracer):
            with pytest.raises(RuntimeError):
                with phase(timings, "load_seconds", "phase.traced"):
                    raise RuntimeError("boom")
        assert timings == {"load_seconds": 1.0}
        assert [s.name for s in tracer.spans] == ["phase.traced"]


class TestNesting:
    def test_children_follow_the_call_stack(self):
        tracer = fake_tracer()
        with trace_scope(tracer):
            with tracer.span("parent"):
                parent_id = current_span_id()
                with tracer.span("child"):
                    with tracer.span("grandchild"):
                        pass
                with tracer.span("sibling"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["parent"].parent_id is None
        assert by_name["child"].parent_id == parent_id
        assert by_name["grandchild"].parent_id == by_name["child"].span_id
        assert by_name["sibling"].parent_id == parent_id

    def test_failed_block_still_records_its_span(self):
        tracer = fake_tracer()
        with trace_scope(tracer):
            with pytest.raises(RuntimeError):
                with tracer.span("doomed"):
                    raise RuntimeError("boom")
        assert [s.name for s in tracer.spans] == ["doomed"]

    def test_fake_clock_gives_exact_times(self):
        tracer = fake_tracer(step=1.0)  # constructor consumes reading 0
        with tracer.span("a"):  # start = reading 1 -> 1.0s after epoch
            pass  # end = reading 2
        span = tracer.spans[0]
        assert span.start == 1.0 and span.duration == 1.0


class TestBoundsAndRetroactive:
    def test_max_spans_drops_and_counts(self):
        tracer = fake_tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 2 and tracer.dropped == 3
        trace = chrome_trace(tracer)
        assert trace["otherData"] == {"dropped_spans": 3}

    def test_add_span_rebases_wall_times(self):
        tracer = fake_tracer(wall_epoch=1000.0)
        parent = tracer.add_span("job", 1002.0, 1005.0, state="done")
        tracer.add_span("job.run", 1003.0, 1005.0, parent_id=parent)
        job, run = tracer.spans
        assert job.start == 2.0 and job.duration == 3.0
        assert run.parent_id == parent and run.start == 3.0


class TestGrafting:
    def test_graft_remaps_ids_and_rebases_times(self):
        worker = fake_tracer(wall_epoch=1010.0)
        with worker.span("run.scenario"):
            with worker.span("run.simulate"):
                pass
        serialized = worker.serialize()
        # serialized starts are wall-absolute
        assert all(s["start"] >= 1010.0 for s in serialized)

        parent = fake_tracer(wall_epoch=1000.0)
        with parent.span("bench.fan_out"):
            anchor = current_span_id()
        parent.graft(serialized, parent_id=anchor)

        by_name = {s.name: s for s in parent.spans}
        scenario = by_name["run.scenario"]
        simulate = by_name["run.simulate"]
        # top-level worker span re-parents under the fan-out span
        assert scenario.parent_id == anchor
        assert simulate.parent_id == scenario.span_id
        # 10s wall offset between the epochs survives the rebase
        assert scenario.start == pytest.approx(10.0 + 1.0)
        # ids were remapped: no collision with the parent's own spans
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_two_workers_with_colliding_ids_both_graft(self):
        a, b = fake_tracer(wall_epoch=1000.0), fake_tracer(wall_epoch=1000.0)
        for w, name in ((a, "wa"), (b, "wb")):
            with w.span(name):
                pass
        parent = fake_tracer(wall_epoch=1000.0)
        parent.graft(a.serialize())
        parent.graft(b.serialize())
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids)) == 2


class TestChromeExport:
    def test_export_is_deterministic_text(self):
        def build() -> str:
            tracer = fake_tracer()
            with trace_scope(tracer):
                with tracer.span("bench.run", suite="smoke"):
                    with tracer.span("run.simulate"):
                        pass
            return chrome_trace_text(tracer)

        first, second = build(), build()
        assert first == second  # byte-identical under the fake clock
        assert first.endswith("\n")

    def test_event_shape_and_ordering(self):
        tracer = fake_tracer()
        with tracer.span("b.outer"):
            with tracer.span("a.inner", case="x"):
                pass
        trace = chrome_trace(tracer, process_name="proc")
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        xs = [e for e in events if e["ph"] == "X"]
        # ordered by start time: outer opened first
        assert [e["name"] for e in xs] == ["b.outer", "a.inner"]
        outer, inner = xs
        assert outer["ts"] == 1_000_000.0 and outer["dur"] == 3_000_000.0
        assert inner["args"]["parent_span"] == outer["id"]
        assert inner["cat"] == "a" and outer["cat"] == "b"
        # valid JSON end to end
        json.loads(chrome_trace_text(tracer))
