"""Unit tests for the parallel machine model (allocation, failures)."""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine
from repro.machine.cluster import AllocationError


class TestConstruction:
    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Machine(size=0)


class TestAllocation:
    def test_allocate_and_release(self):
        machine = Machine(size=8)
        assert machine.allocate(job_id=1, processors=5) == (0, 1, 2, 3, 4)
        assert machine.free_count() == 3
        machine.release(1)
        assert machine.free_count() == 8

    def test_cannot_overallocate(self):
        machine = Machine(size=4)
        machine.allocate(1, 3)
        with pytest.raises(AllocationError):
            machine.allocate(2, 2)
        assert machine.free_count() == 1

    def test_double_allocation_rejected(self):
        machine = Machine(size=8)
        machine.allocate(1, 2)
        with pytest.raises(AllocationError):
            machine.allocate(1, 2)

    def test_release_unknown_job_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=4).release(99)

    def test_zero_processor_request_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=4).allocate(1, 0)


class TestFailures:
    def test_fail_free_nodes_reports_no_victims(self):
        machine = Machine(size=8)
        assert machine.fail_nodes([6, 7]) == []
        assert machine.free_count() == 6

    def test_fail_busy_node_reports_victim_job(self):
        machine = Machine(size=2)
        machine.allocate(7, 2)
        victims = machine.fail_nodes([0])
        assert victims == [7]

    def test_restore_nodes(self):
        machine = Machine(size=4)
        machine.fail_nodes([1, 2])
        machine.restore_nodes([1, 2])
        assert machine.free_count() == 4
        assert machine.allocate(1, 4) == (0, 1, 2, 3)

    def test_down_nodes_not_allocated(self):
        machine = Machine(size=4)
        machine.fail_nodes([0, 1])
        assert machine.free_count() == 2
        with pytest.raises(AllocationError):
            machine.allocate(2, 3)
        assert set(machine.allocate(1, 2)).isdisjoint({0, 1})

    def test_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            Machine(size=2).fail_nodes([99])
        with pytest.raises(AllocationError):
            Machine(size=2).restore_nodes([99])
        with pytest.raises(AllocationError):
            Machine(size=2).fail_nodes([-1])

    def test_release_after_failure_keeps_node_down(self):
        machine = Machine(size=2)
        machine.allocate(1, 2)
        machine.fail_nodes([0])
        machine.release(1)
        assert machine.free_count() == 1
        assert machine.allocate(2, 1) == (1,)

    def test_double_failure_then_one_restore_brings_node_up(self):
        machine = Machine(size=3)
        machine.fail_nodes([1])
        machine.fail_nodes([1])
        machine.restore_nodes([1])
        assert machine.free_count() == 3

    def test_restoring_a_busy_node_keeps_it_allocated(self):
        machine = Machine(size=3)
        machine.allocate(5, 2)
        machine.fail_nodes([1])
        machine.restore_nodes([1, 2])
        assert machine.free_count() == 1
        machine.release(5)
        assert machine.free_count() == 3

    def test_failure_across_two_jobs_and_a_down_node_then_restore_a_held_node(self):
        machine = Machine(size=8)
        assert machine.allocate(1, 3) == (0, 1, 2)
        assert machine.allocate(2, 3) == (3, 4, 5)
        assert machine.fail_nodes([7]) == []
        # Victims come back sorted and once each, whatever the node order.
        assert machine.fail_nodes([3, 7, 2, 4]) == [1, 2]
        assert machine.free_count() == 1
        # Job 1 still holds node 2: restoring it frees nothing yet.
        machine.restore_nodes([2])
        assert machine.free_count() == 1
        machine.release(1)
        assert machine.free_count() == 4
        # Nodes 3 and 4 are still down when job 2 lets go of them.
        machine.release(2)
        assert machine.allocate(3, 4) == (0, 1, 2, 5)
        assert machine.free_count() == 1
        machine.restore_nodes([3, 4, 7])
        assert machine.free_count() == 4
        assert machine.allocate(4, 4) == (3, 4, 6, 7)


class _ReferenceMachine:
    """Naive per-node model of :class:`Machine`: every query scans all nodes."""

    def __init__(self, size: int) -> None:
        self.up: List[bool] = [True] * size
        self.owner: List[Optional[int]] = [None] * size
        self.held: Dict[int, List[int]] = {}

    def free_ids(self) -> List[int]:
        return [n for n in range(len(self.up)) if self.up[n] and self.owner[n] is None]

    def allocate(self, job_id: int, processors: int) -> Optional[tuple]:
        free = self.free_ids()
        if job_id in self.held or processors < 1 or processors > len(free):
            return None
        chosen = free[:processors]
        for n in chosen:
            self.owner[n] = job_id
        self.held[job_id] = chosen
        return tuple(chosen)

    def release(self, job_id: int) -> bool:
        if job_id not in self.held:
            return False
        for n in self.held.pop(job_id):
            self.owner[n] = None
        return True

    def fail(self, node_ids: List[int]) -> List[int]:
        victims = set()
        for n in node_ids:
            self.up[n] = False
            if self.owner[n] is not None:
                victims.add(self.owner[n])
        return sorted(victims)

    def restore(self, node_ids: List[int]) -> None:
        for n in node_ids:
            self.up[n] = True


_SIZE = 8
_JOBS = st.integers(min_value=0, max_value=5)
_NODE_LISTS = st.lists(st.integers(min_value=0, max_value=_SIZE - 1), max_size=4)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), _JOBS, st.integers(min_value=0, max_value=_SIZE + 1)),
        st.tuples(st.just("release"), _JOBS),
        st.tuples(st.just("fail"), _NODE_LISTS),
        st.tuples(st.just("restore"), _NODE_LISTS),
    ),
    max_size=40,
)


class TestAgainstReferenceModel:
    @given(_OPS)
    @settings(max_examples=200, deadline=None)
    def test_machine_matches_per_node_model(self, ops):
        machine = Machine(size=_SIZE)
        model = _ReferenceMachine(_SIZE)
        for op in ops:
            if op[0] == "allocate":
                expected = model.allocate(op[1], op[2])
                if expected is None:
                    with pytest.raises(AllocationError):
                        machine.allocate(op[1], op[2])
                else:
                    assert machine.allocate(op[1], op[2]) == expected
            elif op[0] == "release":
                if model.release(op[1]):
                    machine.release(op[1])
                else:
                    with pytest.raises(AllocationError):
                        machine.release(op[1])
            elif op[0] == "fail":
                assert machine.fail_nodes(op[1]) == model.fail(op[1])
            else:
                machine.restore_nodes(op[1])
                model.restore(op[1])
            assert machine.free_count() == len(model.free_ids())
