"""``window_capacity`` against the two capacity functions it replaced.

The evaluation driver fed announced outages to a ``min_capacity`` closure
over :class:`OutageRecord`\\ s, and each grid site fed its reservation
calendar to one over ``[start, end, processors, meta_id]`` entries.  Both are
kept below, verbatim, as oracles.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.outage import OutageRecord, OutageType
from repro.evaluation.simulator import window_capacity

SIZE = 32


def outage_oracle(machine_size, announced):
    def min_capacity(start: float, end: float) -> int:
        if not announced:
            return machine_size
        boundaries = {start}
        for record in announced:
            if record.overlaps(int(start), int(max(end, start + 1))):
                boundaries.add(max(start, record.start_time))
        minimum = machine_size
        for t in boundaries:
            down = sum(
                r.nodes_affected
                for r in announced
                if r.start_time <= t < r.end_time
            )
            minimum = min(minimum, max(0, machine_size - down))
        return minimum

    return min_capacity


def reservation_oracle(size, reservations):
    reservations = list(reservations)

    def min_capacity(start: float, end: float) -> int:
        if not reservations:
            return size
        boundaries = {start}
        for r_start, r_end, _procs, _mid in reservations:
            if r_start < end and start < r_end:
                boundaries.add(max(start, r_start))
        minimum = size
        for t in boundaries:
            reserved = sum(
                procs
                for r_start, r_end, procs, _mid in reservations
                if r_start <= t < r_end
            )
            minimum = min(minimum, max(0, size - reserved))
        return minimum

    return min_capacity


# Overlapping windows, zero-length ones, and amounts that can exceed the
# machine together; queries include end == start.
windows_st = st.lists(
    st.tuples(
        st.integers(0, 60), st.integers(0, 30), st.integers(1, SIZE)
    ).map(lambda t: (t[0], t[0] + t[1], t[2])),
    max_size=6,
)
queries_st = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 40)).map(lambda q: (q[0], q[0] + q[1])),
    min_size=1,
    max_size=10,
)


# The outage form widens a query to [int(start), int(max(end, start + 1)))
# for its overlap test while the reservation form tests [start, end) as is.
# On integer times, which is all the evaluation driver passes (submit times,
# runtimes and estimates are whole seconds), the widening only adds
# boundaries equal to ``start``, so both forms, and window_capacity, agree.
@settings(max_examples=300, deadline=None)
@given(windows=windows_st, queries=queries_st)
def test_matches_the_outage_form(windows, queries):
    records = [
        OutageRecord(
            announced_time=0,
            start_time=start,
            end_time=end,
            outage_type=OutageType.MAINTENANCE,
            nodes_affected=amount,
        )
        for start, end, amount in windows
    ]
    oracle = outage_oracle(SIZE, records)
    capacity = window_capacity(SIZE, windows)
    for start, end in queries:
        assert capacity(start, end) == oracle(start, end)
        assert capacity(float(start), float(end)) == oracle(float(start), float(end))


@settings(max_examples=300, deadline=None)
@given(windows=windows_st, queries=queries_st)
def test_matches_the_reservation_form(windows, queries):
    calendar = [[start, end, amount, i] for i, (start, end, amount) in enumerate(windows)]
    oracle = reservation_oracle(SIZE, calendar)
    capacity = window_capacity(SIZE, windows)
    for start, end in queries:
        assert capacity(start, end) == oracle(start, end)


def test_reads_windows_at_call_time():
    windows = []
    capacity = window_capacity(SIZE, windows)
    assert capacity(0, 100) == SIZE
    windows.append((10, 20, 8))
    assert capacity(0, 100) == SIZE - 8
    assert capacity(20, 30) == SIZE
    assert capacity(15, 15) == SIZE - 8
