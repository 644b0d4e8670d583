"""A small deterministic discrete-event simulation engine.

The engine keeps a binary heap of plain ``(time, priority, seq, callback,
args)`` tuples.  The sequence number is unique, so tuples compare on
``(time, priority, seq)`` alone and events scheduled at the same instant
with the same priority run in insertion order: two runs of the same workload
with the same seed produce bit-identical schedules.

The scheduler simulators in :mod:`repro.evaluation` and :mod:`repro.grid`
drive it through four calls:

``schedule(delay, callback, *args, priority=0)``
    enqueue an event relative to the current time,

``schedule_at(time, callback, *args, priority=0)``
    enqueue an event at an absolute time,

``cancel(handle)``
    stop an event from firing; the handle is the sequence number the
    ``schedule*`` calls return.  Cancellation is O(1): the entry stays in
    the heap and is skipped when popped ("lazy deletion"),

``run()``
    process events in order until the queue drains.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Set

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling an event in the past, or calling :meth:`run`
    from inside an event.
    """


class Simulator:
    """Deterministic discrete-event simulator; the clock starts at 0.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, 'a')
    >>> _ = sim.schedule(5.0, fired.append, 'b')
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._counter = itertools.count()
        self._cancelled: Set[int] = set()
        self._running = False
        self._processed = 0
        self._peak_queue = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def peak_queue(self) -> int:
        """High-water mark of the event queue length.

        Counts raw heap entries (lazily-cancelled events included), so the
        value is a deterministic function of the event sequence alone.
        """
        return self._peak_queue

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> int:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} s in the past")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, priority: int = 0
    ) -> int:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        Returns the event's handle for :meth:`cancel`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        seq = next(self._counter)
        heapq.heappush(self._queue, (float(time), priority, seq, callback, args))
        if len(self._queue) > self._peak_queue:
            self._peak_queue = len(self._queue)
        return seq

    def cancel(self, handle: int) -> None:
        """Prevent the event ``handle`` from firing.  Idempotent."""
        self._cancelled.add(handle)

    def run(self) -> int:
        """Process events until the queue drains; returns how many ran."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        queue = self._queue
        cancelled = self._cancelled
        executed = 0
        try:
            while queue:
                time, _, seq, callback, args = heapq.heappop(queue)
                if seq in cancelled:
                    cancelled.remove(seq)
                    continue
                self._now = time
                self._processed += 1
                executed += 1
                callback(*args)
        finally:
            self._running = False
        return executed
