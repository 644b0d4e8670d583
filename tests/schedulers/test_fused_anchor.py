"""``FreeSpace.anchor`` against the two calls it fuses.

Conservative backfilling (and the grid's guaranteed-start and profile
predictors) anchor each queued job with one :meth:`FreeSpace.anchor` walk.
It must be indistinguishable from :meth:`FreeSpace.earliest_start` followed
by :meth:`FreeSpace.reserve` over ``[anchor, anchor + duration)``: the same
anchor, the same slots, and the same split and merge counts, because those
counts ride in every report's counters.  The profiles here come from random
reserve/release histories, optionally clamped to a capacity function the way
outage-aware policies clamp them; a clamped last slot sends the walk down
its fallback branch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.freespace import FreeSpace

TOTAL = 32

history_strategy = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "release"]),
        st.integers(min_value=0, max_value=400),  # start
        st.integers(min_value=1, max_value=200),  # duration
        st.integers(min_value=0, max_value=40),  # processors (may over-commit)
    ),
    max_size=25,
)

capacity_strategy = st.one_of(
    st.none(),
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),  # window start
                st.integers(min_value=1, max_value=300),  # window length
                st.integers(min_value=1, max_value=TOTAL),  # processors taken
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=2000),  # clamp horizon, from now
    ),
)

request_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=TOTAL + 1),  # processors
        st.one_of(
            st.integers(min_value=0, max_value=400),
            st.floats(min_value=0.25, max_value=400.0, allow_nan=False),
        ),  # duration
    ),
    min_size=1,
    max_size=30,
)


def _capacity(windows: List[Tuple[int, int, int]]):
    def min_capacity(start: float, end: float) -> int:
        points = {start} | {float(s) for s, _l, _p in windows if start < s < end}
        return min(
            max(0, TOTAL - sum(p for s, length, p in windows if s <= t < s + length))
            for t in points
        )

    return min_capacity


def _profile(now: float, history, clamp) -> FreeSpace:
    fs = FreeSpace(TOTAL, now)
    for kind, start, duration, procs in history:
        if kind == "reserve":
            fs.reserve(start, start + duration, procs)
        else:
            fs.release(start, start + duration, procs)
    if clamp is not None:
        windows, horizon = clamp
        fs.clamp_capacity(_capacity(windows), now + horizon)
    fs.take_stats()
    return fs


def _two_calls(fs: FreeSpace, processors: int, duration: float) -> float:
    anchor = fs.earliest_start(processors, duration)
    fs.reserve(anchor, anchor + duration, processors)
    return anchor


def _outcome(call, fs: FreeSpace, processors: int, duration: float) -> Tuple[str, Optional[float]]:
    try:
        return "ok", call(fs, processors, duration)
    except ValueError as error:
        return str(error), None


class TestAnchorMatchesTwoCalls:
    @settings(max_examples=300, deadline=None)
    @given(
        now=st.integers(min_value=0, max_value=100),
        history=history_strategy,
        clamp=capacity_strategy,
        requests=request_strategy,
    )
    def test_same_anchor_slots_and_counts(self, now, history, clamp, requests):
        fused = _profile(float(now), history, clamp)
        split = fused.copy()
        for processors, duration in requests:
            got = _outcome(FreeSpace.anchor, fused, processors, duration)
            want = _outcome(_two_calls, split, processors, duration)
            assert got == want
            assert fused.segments() == split.segments()
            assert [type(t) for t, _ in fused.segments()] == [
                type(t) for t, _ in split.segments()
            ]
            assert fused.take_stats() == split.take_stats()

    def test_fallback_past_a_clamped_last_slot(self):
        # Clamped to 8 processors until the horizon, the open-ended last slot
        # never offers 16: both paths anchor at the last boundary and
        # over-commit it, exactly as the old breakpoint scan did.
        fused = FreeSpace(TOTAL, 0.0)
        fused.reserve(0.0, 50.0, 4)
        fused.clamp_capacity(lambda start, end: 8, 10_000.0)
        fused.take_stats()
        split = fused.copy()
        assert fused.anchor(16, 30) == _two_calls(split, 16, 30) == 50.0
        assert fused.segments() == split.segments() == [(0.0, 4), (50.0, -8), (80.0, 8)]
        assert fused.take_stats() == split.take_stats() == (1, 0)
        # A second fallback walks over the first one's over-committed slot.
        assert fused.anchor(8, 100) == _two_calls(split, 8, 100) == 80.0
        assert fused.segments() == split.segments() == [(0.0, 4), (50.0, -8), (80.0, 0), (180.0, 8)]
        assert fused.take_stats() == split.take_stats()

    @pytest.mark.parametrize("processors, duration", [(0, 10), (4, 0), (4, -3), (-1, 10)])
    def test_degenerate_requests(self, processors, duration):
        fused = FreeSpace(TOTAL, 5.0)
        fused.reserve(5.0, 40.0, 30)
        split = fused.copy()
        assert _outcome(FreeSpace.anchor, fused, processors, duration) == _outcome(
            _two_calls, split, processors, duration
        )
        assert fused.segments() == split.segments()

    def test_too_wide_request_rejected(self):
        with pytest.raises(ValueError, match="can never fit"):
            FreeSpace(TOTAL, 0.0).anchor(TOTAL + 1, 10)
