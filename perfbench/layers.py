"""Per-layer accounting for the traced run.

The traced run wraps the public functions of each layer from outside (no
source edits) and keeps, per *bucket*, the wrapped calls' self time: the
inclusive time of a call minus the time of wrapped calls nested inside it.
A bucket is a layer name, optionally split (``schedulers.select`` and
``schedulers.fit_check`` are both the ``schedulers`` layer).

The instrumentation's own cost is kept apart as ``overhead_ns``:

* the wrapper's bookkeeping between its first and last clock reading,
  which it times directly;
* the call into the wrapper and its return, which happen outside those
  readings and would otherwise count as the caller's self time.  The
  clock measures them once per install on an empty wrapped function
  (``call_ns``) and moves that much per wrapped call from the caller's
  bucket to the overhead;
* the trampolines the engine's wrappers add: ``schedule_at`` passes every
  callback through one dispatcher, so each push and each event runs one
  extra forwarding frame.  Its cost (``trampoline_ns``) is measured the
  same way and moved from the engine and evaluation buckets.

So for one pass

    wall = sum(self time of every bucket) + overhead + unattributed

where ``unattributed`` is the harness around the top-level wrapped call.
The two calibrated costs are the fastest of several timings, so the
correction errs towards leaving instrumentation in the buckets rather than
taking real work out of them.  While the bounded
:class:`~repro.obs.trace.Tracer` has room, each wrapped call is also
recorded as a span; once full, spans are dropped and counted.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerClock"]

_FREESPACE_METHODS = ("copy", "advance", "earliest_start", "reserve", "release", "clamp_capacity")
_MACHINE_METHODS = ("allocate", "release", "free_count", "fail_nodes", "restore_nodes")
#: Calls per calibration timing, and timings per calibration.
_CALIBRATION_CALLS = 20000
_CALIBRATION_REPEATS = 5


def _forward(callback, *args, **kwargs):
    """The shape of the engine trampolines, for calibration."""
    return callback(*args, **kwargs)


def _noop(_a, _b):
    return None


class LayerClock:
    """Self time and call counts per bucket, for one traced pass."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: calls per wrapped function, keyed by span name (``machine.allocate``)
        self.calls: Dict[str, int] = defaultdict(int)
        #: values the hooks derive from arguments and results
        self.counts: Dict[str, int] = defaultdict(int)
        self.overhead_ns = 0
        #: calibrated cost of calling a wrapper, and of one trampoline frame
        self.call_ns = 0
        self.trampoline_ns = 0
        #: per open wrapped call, the time of the wrapped calls nested in it;
        #: the bottom entry collects top-level calls
        self._stack: List[int] = [0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # the wrapper
    # ------------------------------------------------------------------
    def wrap(
        self,
        bucket: str,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[tuple, Any], None]] = None,
        trampoline: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` timed into ``bucket``; ``after(args, result)`` runs untimed.

        ``trampoline`` marks an ``fn`` that adds one forwarding frame of the
        instrumentation's own, whose calibrated cost goes to the overhead.
        """
        ns = time.perf_counter_ns
        call_ns = self.call_ns
        trampoline_ns = self.trampoline_ns if trampoline else 0
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        tracer = self.tracer
        spans = tracer.spans
        cap = tracer.max_spans
        clock = self

        def wrapped(*args, **kwargs):
            enter = ns()
            stack.append(0)
            span = None
            if len(spans) < cap:
                span = tracer.span(name)
                span.__enter__()
            else:
                tracer.dropped += 1
            start = ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = ns()
                if span is not None:
                    span.__exit__(None, None, None)
                self_ns[bucket] += stop - start - stack.pop() - trampoline_ns
                calls[name] += 1
            if after is not None:
                after(args, result)
            leave = ns()
            stack[-1] += leave - enter + call_ns
            clock.overhead_ns += leave - enter - (stop - start) + trampoline_ns + call_ns
            return result

        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__wrapped__ = fn
        return wrapped

    def _patch(self, owner: Any, attr: str, bucket: str, name: str, after=None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(bucket, name, original, after))

    # ------------------------------------------------------------------
    # installing the wrappers
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every layer's public functions for the enclosed block."""
        try:
            self.call_ns, self.trampoline_ns = self.calibrate()
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    @staticmethod
    def calibrate() -> Tuple[int, int]:
        """``(call_ns, trampoline_ns)``: what a wrapper's call and return cost
        its caller beyond the wrapper's own readings, and what one trampoline
        frame adds to a direct call; fastest of several timings each."""
        from repro.obs.trace import Tracer

        probe = LayerClock(Tracer(max_spans=0))
        wrapped = probe.wrap("calibration", "calibration", _noop)
        ns = time.perf_counter_ns
        calls = range(_CALIBRATION_CALLS)
        best = {"loop": float("inf"), "direct": float("inf"),
                "wrapped": float("inf"), "trampoline": float("inf")}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(_CALIBRATION_REPEATS):
                started = ns()
                for _ in calls:
                    pass
                best["loop"] = min(best["loop"], ns() - started)
                started = ns()
                for _ in calls:
                    _noop(1, 2)
                best["direct"] = min(best["direct"], ns() - started)
                started = ns()
                for _ in calls:
                    _forward(_noop, 1, 2)
                best["trampoline"] = min(best["trampoline"], ns() - started)
                probe._stack[0] = 0
                started = ns()
                for _ in calls:
                    wrapped(1, 2)
                # the wrappers' own readings, summed into the bottom entry
                outside = ns() - started - probe._stack[0]
                best["wrapped"] = min(best["wrapped"], outside)
        finally:
            if was_enabled:
                gc.enable()
        n = _CALIBRATION_CALLS
        call_ns = max(0, round((best["wrapped"] - best["loop"]) / n))
        trampoline_ns = max(0, round((best["trampoline"] - best["direct"]) / n))
        return call_ns, trampoline_ns

    def _install(self) -> None:
        import repro.api.runner as api_runner
        import repro.bench.runner as bench_runner
        from repro.api.registry import scheduler_registry
        from repro.bench.store import ResultStore
        from repro.bench.suite import BenchmarkCase
        from repro.core.swf.workload import Workload
        from repro.evaluation.simulator import MachineSimulation
        from repro.machine.cluster import Machine
        from repro.schedulers.base import Scheduler
        from repro.schedulers.freespace import FreeSpace, FreeSpaceTracker
        from repro.simulation.engine import Simulator

        counts = self.counts

        # traces: materialization from the trace cache, and load rescaling.
        # run_suite reaches the shared resolver through its own module's name.
        self._patch(bench_runner, "resolve_workload_shared", "traces",
                    "traces.resolve_workload_shared")
        self._patch(Workload, "scale_load", "traces", "traces.scale_load")

        # engine: pushes and the event loop.  Every callback handed to
        # schedule_at runs through one dispatcher timed as evaluation, so the
        # engine's self time is the loop and heap work alone.
        dispatch = self.wrap(
            "evaluation", "evaluation.event",
            lambda callback, *args, **kwargs: callback(*args, **kwargs),
            trampoline=True,
        )
        schedule_at = Simulator.__dict__["schedule_at"]
        self._patches.append((Simulator, "schedule_at", schedule_at))
        Simulator.schedule_at = self.wrap(
            "engine", "engine.schedule_at",
            lambda sim, when, callback, *args, **kwargs: schedule_at(
                sim, when, dispatch, callback, *args, **kwargs
            ),
            trampoline=True,
        )
        self._patch(Simulator, "run", "engine", "engine.run")

        # evaluation: the simulator's run (set-up, result assembly) plus callbacks.
        self._patch(MachineSimulation, "run", "evaluation", "evaluation.run")

        # schedulers: select_jobs of every registered space policy class.
        def _empty_pass(_args, selected) -> None:
            if not selected:
                counts["schedulers.empty_passes"] += 1

        seen = set()
        for policy in scheduler_registry.names():
            cls = scheduler_registry.get(policy)
            if (
                isinstance(cls, type)
                and issubclass(cls, Scheduler)
                and "select_jobs" in cls.__dict__
                and cls not in seen
            ):
                seen.add(cls)
                self._patch(cls, "select_jobs", "schedulers.select",
                            f"schedulers.{cls.__name__}.select_jobs", _empty_pass)
        self._patch(Scheduler, "job_fits_now", "schedulers.fit_check",
                    "schedulers.job_fits_now")

        # freespace: the tracker's per-pass sync and the slot-set operations.
        self._patch(FreeSpaceTracker, "sync", "freespace", "freespace.sync")
        for method in _FREESPACE_METHODS:
            self._patch(FreeSpace, method, "freespace", f"freespace.{method}")

        # machine: the allocator; each call walks every node of the machine.
        def _scanned(args, _result) -> None:
            counts["machine.nodes_scanned"] += args[0].size

        for method in _MACHINE_METHODS:
            self._patch(Machine, method, "machine", f"machine.{method}", _scanned)

        self._patch(BenchmarkCase, "outage_log", "outage", "outage.outage_log")
        # run() calls compute_metrics through the name it imported.
        self._patch(api_runner, "compute_metrics", "metrics", "metrics.compute_metrics")

        def _hit(_args, entry) -> None:
            if entry is not None:
                counts["store.hits"] += 1

        self._patch(ResultStore, "get", "store.get", "store.get", _hit)
        self._patch(ResultStore, "put", "store.put", "store.put")

    # ------------------------------------------------------------------
    # reading the results
    # ------------------------------------------------------------------
    def layer_calls(self, prefix: str) -> int:
        """Calls of every wrapped function whose span name starts with ``prefix``."""
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def self_s(self, bucket: str) -> float:
        return self.self_ns.get(bucket, 0) / 1e9

    def attributed_s(self) -> float:
        """Self time of every bucket plus the wrappers' own overhead."""
        return (sum(self.self_ns.values()) + self.overhead_ns) / 1e9
