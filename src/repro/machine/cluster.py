"""The :class:`Machine` allocator: whole nodes, lowest id first, failable.

The model is deliberately at the granularity the SWF records: a job asks for
a number of processors (nodes) and the machine either has that many free,
non-failed nodes or it does not.  Node identity matters only for outage
handling (a failure takes down *specific* nodes, killing whatever ran
there), so the allocator remembers the node ids each job holds and derives
a failed node's job from those allocations when an outage needs it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["Machine", "AllocationError"]


class AllocationError(RuntimeError):
    """Raised when an allocation or release request cannot be honoured."""


class Machine:
    """A space-shared parallel machine of ``size`` failable nodes.

    A node is free when it is up and no job holds it.  Allocation always
    takes the lowest-numbered free nodes, so schedules and outage victims
    are a deterministic function of the event sequence.

    The state is an ascending free-id list, a down-id set and a job ->
    node-ids map.  Allocating and releasing touch no node one by one (a
    slice, an extend and a sort); only :meth:`fail_nodes` and
    :meth:`restore_nodes` walk the held allocations to learn which job, if
    any, holds a node.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("a machine needs at least one node")
        self.size = size
        #: ids of the free nodes, ascending
        self._free: List[int] = list(range(size))
        self._down: Set[int] = set()
        #: node ids held by each running job, ascending
        self._held: Dict[int, Tuple[int, ...]] = {}

    def free_count(self) -> int:
        """Number of free (up and unallocated) nodes."""
        return len(self._free)

    def allocate(self, job_id: int, processors: int) -> Tuple[int, ...]:
        """Allocate the ``processors`` lowest-numbered free nodes to ``job_id``.

        Returns the granted node ids.  Raises :class:`AllocationError` when
        the request cannot be satisfied or the job already holds nodes.
        """
        if job_id in self._held:
            raise AllocationError(f"job {job_id} already holds an allocation")
        if processors < 1:
            raise AllocationError("a job must request at least one processor")
        free = self._free
        if len(free) < processors:
            raise AllocationError(
                f"job {job_id} requests {processors} nodes but only {len(free)} are free"
            )
        chosen = self._held[job_id] = tuple(free[:processors])
        del free[:processors]
        return chosen

    def release(self, job_id: int) -> None:
        """Release the nodes held by ``job_id``.

        Nodes that failed while the job held them stay down.
        """
        node_ids = self._held.pop(job_id, None)
        if node_ids is None:
            raise AllocationError(f"job {job_id} holds no allocation")
        down = self._down
        if down:
            self._free.extend(n for n in node_ids if n not in down)
        else:
            self._free.extend(node_ids)
        # Both runs are sorted, so this sort is a linear merge.
        self._free.sort()

    # ------------------------------------------------------------------
    # failures and repairs (outage support)
    # ------------------------------------------------------------------
    def _check_ids(self, node_ids: Iterable[int]) -> List[int]:
        node_ids = list(node_ids)
        for node_id in node_ids:
            if not 0 <= node_id < self.size:
                raise AllocationError(f"node {node_id} does not exist")
        return node_ids

    def _owners(self) -> Dict[int, int]:
        """node id -> the job holding it, for every allocated node."""
        return {node_id: job_id for job_id, held in self._held.items() for node_id in held}

    def fail_nodes(self, node_ids: Iterable[int]) -> List[int]:
        """Mark nodes as down; returns the ids of jobs that were running on them.

        The affected jobs keep their allocations (the caller — the evaluation
        driver — decides whether to kill and resubmit them); the failed nodes
        are excluded from future allocations until :meth:`restore_nodes`.
        """
        node_ids = self._check_ids(node_ids)
        owners = self._owners()
        victims: Set[int] = set()
        for node_id in node_ids:
            owner = owners.get(node_id)
            if owner is not None:
                victims.add(owner)
            elif node_id not in self._down:
                del self._free[bisect_left(self._free, node_id)]
            self._down.add(node_id)
        return sorted(victims)

    def restore_nodes(self, node_ids: Iterable[int]) -> None:
        """Bring failed nodes back into service; restoring an up node is a no-op."""
        node_ids = self._check_ids(node_ids)
        owners = self._owners()
        for node_id in node_ids:
            if node_id in self._down:
                self._down.remove(node_id)
                if node_id not in owners:
                    insort(self._free, node_id)
