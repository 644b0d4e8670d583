"""Slot-set free-space core: the structure every space-sharing policy queries.

Conservative backfilling reasons about a piecewise-constant function
"free processors over future time".  The original breakpoint-list profile
rebuilt that function from the running set on *every* scheduling pass and
linear-scanned every breakpoint per query, which is quadratic-to-cubic on
long traces.  This module replaces the representation with a slot set in
the style of OAR3's ``kamelot`` scheduler:

* :class:`FreeSpace` — a sorted slot list.  Slot ``i`` covers
  ``[times[i], times[i+1])`` (the last slot is open-ended) with a constant
  number of free processors.  Lookups bisect, reservations split at most
  two slots, adjacent slots with equal free counts merge away, and
  :meth:`FreeSpace.earliest_start` walks slots — jumping past the *end* of
  any slot that cannot host the request instead of retrying every
  breakpoint in between.

* :class:`FreeSpaceTracker` — maintains one :class:`FreeSpace` across
  scheduling events.  Instead of rebuilding from the running set each
  pass, it advances the slot origin to ``now`` and applies the changes the
  driver reports (:class:`~repro.schedulers.base.RunningChanges`): jobs
  that finished (or were killed by an outage) release their window, jobs
  that started reserve theirs.

Every query is value-equivalent to the original breakpoint scan; the
equivalence is asserted bit-for-bit in
``tests/schedulers/test_freespace.py`` against a verbatim copy of the old
implementation.

The structure emits deterministic telemetry (``slots_split``,
``slots_merged``, ``profile_patches``) derived only from simulated facts,
so the counters ride in ``MetricsReport.counters`` bit-identically across
serial and parallel runs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.telemetry import count

__all__ = ["FreeSpace", "FreeSpaceTracker"]


class FreeSpace:
    """Free processors over future time, as a sorted slot set.

    Invariants: ``_times`` is strictly increasing with ``_times[0] == now``;
    slot ``i`` spans ``[_times[i], _times[i+1])`` (last slot open-ended)
    and offers ``_free[i]`` processors.  Adjacent slots never hold equal
    free counts (they are merged on the spot), which keeps the slot count
    proportional to the number of *distinct* reservation edges rather
    than the number of operations ever applied.
    """

    __slots__ = ("total", "now", "_times", "_free", "splits", "merges")

    def __init__(self, total_processors: int, now: float) -> None:
        if total_processors < 1:
            raise ValueError("total_processors must be >= 1")
        self.total = total_processors
        self.now = float(now)
        self._times: List[float] = [float(now)]
        self._free: List[int] = [total_processors]
        #: slot splits/merges performed since the last :meth:`take_stats`
        self.splits = 0
        self.merges = 0

    @classmethod
    def from_running(
        cls,
        total_processors: int,
        now: float,
        running: Sequence,
    ) -> "FreeSpace":
        """The slot set implied by the running jobs' expected completions."""
        fs = cls(total_processors, now)
        for info in running:
            end = max(info.expected_end, now)
            fs.reserve(now, end, info.processors)
        return fs

    def copy(self) -> "FreeSpace":
        """An independent snapshot; O(slots).  Stats start at zero."""
        fs = FreeSpace.__new__(FreeSpace)
        fs.total = self.total
        fs.now = self.now
        fs._times = self._times[:]
        fs._free = self._free[:]
        fs.splits = 0
        fs.merges = 0
        return fs

    def take_stats(self) -> Tuple[int, int]:
        """(splits, merges) since the last call; resets the counters."""
        stats = (self.splits, self.merges)
        self.splits = 0
        self.merges = 0
        return stats

    # ------------------------------------------------------------------
    # slot maintenance
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Move the slot origin forward to ``now``, dropping past slots."""
        now = float(now)
        if now <= self.now:
            if now < self.now:
                raise ValueError("advance() cannot move time backwards")
            return
        times = self._times
        index = bisect_right(times, now) - 1
        if index > 0:
            del times[:index]
            del self._free[:index]
        times[0] = now
        self.now = now

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def free_at(self, time: float) -> int:
        """Free processors at ``time`` (clamped to now)."""
        time = max(time, self.now)
        return self._free[bisect_right(self._times, time) - 1]

    def min_free(self, start: float, end: float) -> int:
        """Minimum free processors over [start, end)."""
        start = max(start, self.now)
        times, free = self._times, self._free
        index = bisect_right(times, start) - 1
        minimum = free[index]
        if end <= start:
            return minimum
        n = len(times)
        index += 1
        while index < n and times[index] < end:
            if free[index] < minimum:
                minimum = free[index]
            index += 1
        return minimum

    def earliest_start(self, processors: int, duration: float, not_before: Optional[float] = None) -> float:
        """Earliest time >= ``not_before`` with ``processors`` free for ``duration``.

        Walks slots left to right.  When a slot inside the candidate window
        cannot host the request, every anchor before that slot's *end* is
        infeasible too (its window would still contain the slot), so the
        walk jumps straight there — each slot is visited at most once per
        call instead of once per candidate breakpoint.
        """
        if processors > self.total:
            raise ValueError(
                f"a request for {processors} processors can never fit a "
                f"{self.total}-processor machine"
            )
        anchor = self.now if not_before is None else max(not_before, self.now)
        times, free = self._times, self._free
        n = len(times)
        index = bisect_right(times, anchor) - 1
        while True:
            if free[index] < processors:
                blocker = index
            else:
                blocker = -1
                end = anchor + duration
                scan = index + 1
                while scan < n and times[scan] < end:
                    if free[scan] < processors:
                        blocker = scan
                        break
                    scan += 1
            if blocker < 0:
                return anchor
            if blocker + 1 >= n:
                # Matches the old breakpoint scan's fallback: past the last
                # boundary the machine is (in practice) fully free again.
                return max(times[-1], anchor)
            index = blocker + 1
            anchor = times[index]

    def anchor(self, processors: int, duration: float) -> float:
        """Reserve ``processors`` for ``duration`` at the earliest start; return it.

        The same anchor, slots and split/merge counts as :meth:`earliest_start`
        followed by :meth:`reserve` over ``[anchor, anchor + duration)``, in
        one walk.  The anchor is always an existing slot boundary (``now``
        or the end of a blocking slot), so its edge needs no split, and the
        window's end edge goes where the walk's scan stopped.
        """
        if processors <= 0 or duration <= 0:
            start = self.earliest_start(processors, duration)
            self.reserve(start, start + duration, processors)
            return start
        if processors > self.total:
            raise ValueError(
                f"a request for {processors} processors can never fit a "
                f"{self.total}-processor machine"
            )
        times, free = self._times, self._free
        n = len(times)
        index = 0
        while True:
            # Skip the slots that cannot host the request; past the last
            # one, take earliest_start's fallback anchor (the last boundary)
            # and reserve it the long way.
            while free[index] < processors:
                index += 1
                if index == n:
                    anchor = times[-1]
                    self._shift(anchor, anchor + duration, -processors)
                    return anchor
            anchor = times[index]
            end = anchor + duration
            scan = index + 1
            while scan < n and times[scan] < end:
                if free[scan] < processors:
                    break
                scan += 1
            else:
                if end <= anchor:
                    return anchor
                # Reserve [anchor, end) over slots index .. scan-1.
                if scan == n or times[scan] != end:
                    times.insert(scan, end)
                    free.insert(scan, free[scan - 1])
                    self.splits += 1
                    n += 1
                for i in range(index, scan):
                    free[i] -= processors
                if scan < n and free[scan - 1] == free[scan]:
                    del times[scan]
                    del free[scan]
                    self.merges += 1
                if index and free[index - 1] == free[index]:
                    del times[index]
                    del free[index]
                    self.merges += 1
                return anchor
            index = scan

    def slots(self) -> List[Tuple[float, float, int]]:
        """(start, end, free) triples; the last slot ends at +inf."""
        out = []
        times, free = self._times, self._free
        for i, start in enumerate(times):
            end = times[i + 1] if i + 1 < len(times) else float("inf")
            out.append((start, end, free[i]))
        return out

    def segments(self) -> List[Tuple[float, int]]:
        """(time, free) slot boundaries, for inspection and tests."""
        return list(zip(self._times, self._free))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def reserve(self, start: float, end: float, processors: int) -> None:
        """Subtract ``processors`` over [start, end) (clamped to now)."""
        if processors < 0:
            raise ValueError("processors must be non-negative")
        self._shift(start, end, -processors)

    def release(self, start: float, end: float, processors: int) -> None:
        """Give back ``processors`` over [start, end) — the inverse of reserve."""
        if processors < 0:
            raise ValueError("processors must be non-negative")
        self._shift(start, end, processors)

    def _shift(self, start: float, end: float, delta: int) -> None:
        """Add ``delta`` free processors over [start, end) (clamped to now).

        Ensures slot boundaries at both window edges (at most two splits),
        shifts the slots in between, then drops either edge if it now
        separates equal slots.  Interior boundaries shift uniformly, so
        unequal neighbours stay unequal and only the edges can merge.
        """
        now = self.now
        start = float(start) if start > now else now
        end = float(end) if end > now else now
        if end <= start or not delta:
            return
        times, free = self._times, self._free
        i0 = bisect_right(times, start)
        if times[i0 - 1] == start:
            i0 -= 1
        else:
            times.insert(i0, start)
            free.insert(i0, free[i0 - 1])
            self.splits += 1
        i1 = bisect_right(times, end, i0)
        if times[i1 - 1] == end:
            i1 -= 1
        else:
            times.insert(i1, end)
            free.insert(i1, free[i1 - 1])
            self.splits += 1
        for i in range(i0, i1):
            free[i] += delta
        if i1 < len(times) and free[i1 - 1] == free[i1]:
            del times[i1]
            del free[i1]
            self.merges += 1
        if i0 and free[i0 - 1] == free[i0]:
            del times[i0]
            del free[i0]
            self.merges += 1

    def clamp_capacity(self, capacity_fn: Callable[[float, float], int], horizon: float) -> None:
        """Clamp free counts to an external capacity function over [now, horizon).

        Outage-aware backfilling: the free curve can never exceed the
        announced available capacity.  Samples the function per slot, like
        the old per-breakpoint loop — callers pass a piecewise-constant
        ``AvailabilityTimeline`` min, so per-slot sampling is exact.
        """
        times, free = self._times, self._free
        n = len(times)
        total = self.total
        for i in range(n):
            t = times[i]
            if t >= horizon:
                break
            next_t = times[i + 1] if i + 1 < n else horizon
            cap = capacity_fn(t, min(next_t, horizon))
            busy = total - free[i]
            limited = cap - busy
            if limited < 0:
                limited = 0
            if limited < free[i]:
                free[i] = limited
        # Clamping can flatten neighbouring slots to equal values; sweep
        # once so later walks skip them.  (Merging never changes any query
        # result — equal adjacent slots answer identically.)
        i = 1
        while i < len(self._times):
            if self._free[i - 1] == self._free[i]:
                del self._times[i]
                del self._free[i]
                self.merges += 1
            else:
                i += 1


class FreeSpaceTracker:
    """Maintain a :class:`FreeSpace` incrementally across scheduling passes.

    Each pass advances the previous slot set to ``state.now`` and applies
    ``state.changes``, the running-set changes the driver kept since its
    previous pass: finished jobs (completed, or killed by an outage)
    release the rest of their window, in the order they held in the
    running set, then started jobs reserve ``[now, expected_end)`` in start
    order.  The result is, slot for slot, the structure
    ``FreeSpace.from_running`` would build from ``state.running`` — an
    invariant the property tests assert.  The splits and merges a sync
    makes stay on the returned slot set for the caller's
    :meth:`FreeSpace.take_stats`, so a pass can emit them once with its own.

    A state without changes (a hand-built one), changes from another
    machine or with a pass missing, a pass with an earlier ``now`` or a
    different machine size all trigger a full rebuild from
    ``state.running``, which also covers reusing one scheduler instance
    across simulations.
    """

    __slots__ = ("_fs", "_source", "_serial")

    def __init__(self) -> None:
        self._fs: Optional[FreeSpace] = None
        #: the machine and pass number of the last changes applied
        self._source: Optional[int] = None
        self._serial = 0

    def reset(self) -> None:
        self._fs = None
        self._source = None
        self._serial = 0

    def sync(self, state) -> FreeSpace:
        """Bring the tracked slot set up to date with ``state``; return it."""
        now = state.now
        fs = self._fs
        changes = state.changes
        if (
            fs is None
            or changes is None
            or changes.source != self._source
            or changes.serial != self._serial + 1
            or now < fs.now
            or fs.total != state.total_processors
        ):
            return self._rebuild(state)
        self._serial = changes.serial
        fs.advance(now)
        patches = 0
        for info in changes.finished:
            end = info.expected_end
            if end > now:
                fs.release(now, end, info.processors)
                patches += 1
        for info in changes.started:
            end = info.expected_end
            if end > now:
                fs.reserve(now, end, info.processors)
                patches += 1
        if patches:
            count("profile_patches", patches)
        return fs

    def _rebuild(self, state) -> FreeSpace:
        count("profile_builds")
        fs = FreeSpace(state.total_processors, state.now)
        now = state.now
        for info in state.running:
            end = info.expected_end
            if end < now:
                end = now
            fs.reserve(now, end, info.processors)
        self._fs = fs
        changes = state.changes
        self._source = None if changes is None else changes.source
        self._serial = 0 if changes is None else changes.serial
        return fs
