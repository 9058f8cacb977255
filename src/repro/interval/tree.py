"""External-memory interval index for subterrain residence intervals.

Section 3.5.2 indexes, for each subterrain, "the time interval when a
moving object was in the subterrain", and answers *overlap* queries:
report every object whose residence interval intersects the query's time
window.  The paper points to the external interval tree of Arge &
Vitter; we implement the standard practical equivalent — an **augmented
B+-tree** keyed on the interval's left endpoint whose internal entries
carry the maximum right endpoint of their subtree.  An overlap query
``[ql, qh]`` descends only into subtrees with ``min_left <= qh`` and
``max_right >= ql``, which reports the ``K`` overlapping intervals in
``O(log_B n + K/B)`` I/Os for the non-degenerate distributions that
arise here (residence intervals of uniformly moving objects).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bptree.tree import (
    DELETE,
    INSERT,
    INTERNAL,
    BatchOp,
    BPlusTree,
    batch_order,
)
from repro.errors import (
    DuplicateObjectError,
    InvalidQueryError,
    ObjectNotFoundError,
)
from repro.io_sim.layout import INTERVAL_ENTRY
from repro.io_sim.pager import DiskSimulator


class _MaxRightBPlusTree(BPlusTree):
    """B+-tree whose aggregate is the maximum interval right endpoint.

    Leaf records are ``((left, seq), (right, payload))``.
    """

    def _leaf_aggregate(self, items: List[Tuple[Any, Any]]) -> Any:
        if not items:
            return -math.inf
        return max(right for (_, (right, _)) in items)

    def _merge_aggregates(self, aggregates: List[Any]) -> Any:
        if not aggregates:
            return -math.inf
        return max(aggregates)

    def _aggregate_after_insert(self, aggregate: Any, record: Any) -> Any:
        if aggregate is None:
            return None
        return max(aggregate, record[1][0])

    def _aggregate_after_delete(self, aggregate: Any, record: Any) -> Any:
        # Only losing a maximal right endpoint can lower the max.
        if aggregate is None or record[1][0] >= aggregate:
            return None
        return aggregate


class IntervalTree:
    """Dynamic external interval index supporting overlap reporting.

    Intervals are closed ``[left, right]`` and carry an arbitrary payload
    (the library stores object ids).  Each stored interval gets a handle
    used for deletion; callers typically remember the handle per object.
    """

    def __init__(
        self,
        disk: DiskSimulator,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        capacity = leaf_capacity or INTERVAL_ENTRY.capacity(disk.page_size)
        self.disk = disk
        self._tree = _MaxRightBPlusTree(disk, capacity)
        self._seq = 0

    @classmethod
    def bulk_build(
        cls,
        disk: DiskSimulator,
        intervals: List[Tuple[float, float, Any]],
        leaf_capacity: Optional[int] = None,
        fill: float = 0.8,
    ) -> Tuple["IntervalTree", List[Tuple[Any, int]]]:
        """Bulk-load from ``(left, right, payload)`` records.

        Returns the tree and the deletion handles in input order.  The
        records are sorted in memory (the caller may pre-sort with
        :func:`repro.io_sim.extsort.external_sort` for strict
        external-memory discipline) and packed with the B+-tree bulk
        loader, which recomputes the max-right aggregates bottom-up.
        """
        tree = cls.__new__(cls)
        capacity = leaf_capacity or INTERVAL_ENTRY.capacity(disk.page_size)
        tree.disk = disk
        tree._seq = len(intervals)
        handles = [
            (left, seq) for seq, (left, _, _) in enumerate(intervals)
        ]
        items = sorted(
            (
                ((left, seq), (right, payload))
                for seq, (left, right, payload) in enumerate(intervals)
            ),
            key=lambda item: item[0],
        )
        for left, right, _ in intervals:
            if left > right:
                raise InvalidQueryError(f"empty interval [{left}, {right}]")
        tree._tree = _MaxRightBPlusTree.bulk_load(
            disk, items, capacity, fill=fill
        )
        return tree, handles

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, left: float, right: float, payload: Any) -> Tuple[Any, int]:
        """Store an interval; returns the deletion handle."""
        if left > right:
            raise InvalidQueryError(f"empty interval [{left}, {right}]")
        handle = (left, self._seq)
        self._seq += 1
        self._tree.insert(handle, (right, payload))
        return handle

    def delete(self, handle: Tuple[Any, int]) -> Any:
        """Remove a previously inserted interval; returns its payload."""
        _, payload = self._tree.delete(handle)
        return payload

    def apply_batch(
        self,
        handles: Sequence[Tuple[Any, int]],
        intervals: Sequence[Tuple[float, float, Any]],
    ) -> List[Tuple[Any, int]]:
        """Delete ``handles`` and store ``intervals`` in one sorted pass.

        Returns the new intervals' deletion handles in input order
        (sequence numbers are minted in that order, so the result does
        not depend on how the batch sorts).  The augmented tree takes
        the whole batch through
        :meth:`~repro.bptree.tree.BPlusTree.apply_sorted`: the max-right
        aggregate rides along each leaf run and is rescanned from the
        page at most once per touched leaf, not once per interval per
        level.  Empty intervals are rejected before anything is
        applied.
        """
        for left, right, _ in intervals:
            if left > right:
                raise InvalidQueryError(f"empty interval [{left}, {right}]")
        ops: List[BatchOp] = [(handle, DELETE, None) for handle in handles]
        minted: List[Tuple[Any, int]] = []
        for left, right, payload in intervals:
            handle = (left, self._seq)
            self._seq += 1
            minted.append(handle)
            ops.append((handle, INSERT, (right, payload)))
        ops.sort(key=batch_order)
        self._tree.apply_sorted(ops)
        return minted

    def overlapping(self, ql: float, qh: float) -> List[Any]:
        """Payloads of all intervals intersecting ``[ql, qh]``.

        Descends the augmented tree, pruning subtrees whose minimum left
        endpoint exceeds ``qh`` or whose maximum right endpoint is below
        ``ql``.
        """
        return [payload for _, _, payload in self.overlapping_items(ql, qh)]

    def overlapping_items(
        self, ql: float, qh: float
    ) -> List[Tuple[float, float, Any]]:
        """Like :meth:`overlapping` but yields ``(left, right, payload)``."""
        if ql > qh:
            raise InvalidQueryError(f"empty query window [{ql}, {qh}]")
        result: List[Tuple[float, float, Any]] = []
        self._collect(self._tree.root_pid, ql, qh, result)
        return result

    def _collect(
        self,
        pid: int,
        ql: float,
        qh: float,
        out: List[Tuple[float, float, Any]],
    ) -> None:
        page = self.disk.read(pid)
        if page.meta["kind"] == INTERNAL:
            for min_key, child_pid, max_right in page.items:
                if min_key[0] > qh:
                    break  # this and all following subtrees start too late
                if max_right < ql:
                    continue  # every interval here ends too early
                self._collect(child_pid, ql, qh, out)
            return
        for (left, _), (right, payload) in page.items:
            if left > qh:
                break
            if right >= ql:
                out.append((left, right, payload))

    def check_invariants(self) -> None:
        """Validate the underlying tree plus the max-right aggregates."""
        self._tree.check_invariants()
        self._check_aggregates(self._tree.root_pid)

    def _check_aggregates(self, pid: int) -> float:
        page = self.disk.peek(pid)
        assert page is not None
        if page.meta["kind"] != INTERNAL:
            if not page.items:
                return -math.inf
            return max(right for (_, (right, _)) in page.items)
        overall = -math.inf
        for _, child_pid, max_right in page.items:
            actual = self._check_aggregates(child_pid)
            assert actual == max_right, (
                f"stale aggregate at page {pid}: {max_right} != {actual}"
            )
            overall = max(overall, actual)
        return overall


#: Per-object handle bookkeeping for callers that delete by object id.
class IntervalIndex:
    """An :class:`IntervalTree` with delete-by-id bookkeeping."""

    def __init__(self, disk: DiskSimulator, leaf_capacity: Optional[int] = None):
        self._tree = IntervalTree(disk, leaf_capacity)
        self._handles: Dict[int, Tuple[Any, int]] = {}

    @classmethod
    def bulk_build(
        cls,
        disk: DiskSimulator,
        records: List[Tuple[int, float, float]],
        leaf_capacity: Optional[int] = None,
        fill: float = 0.8,
    ) -> "IntervalIndex":
        """Bulk-load from ``(oid, left, right)`` records."""
        index = cls.__new__(cls)
        tree, handles = IntervalTree.bulk_build(
            disk,
            [(left, right, oid) for oid, left, right in records],
            leaf_capacity,
            fill=fill,
        )
        index._tree = tree
        index._handles = {}
        for (oid, _, _), handle in zip(records, handles):
            if oid in index._handles:
                raise DuplicateObjectError(
                    f"object {oid} appears twice in the bulk input"
                )
            index._handles[oid] = handle
        return index

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, oid: int) -> bool:
        return oid in self._handles

    def insert(self, oid: int, left: float, right: float) -> None:
        if oid in self._handles:
            raise DuplicateObjectError(
                f"object {oid} already has an interval; delete it first"
            )
        self._handles[oid] = self._tree.insert(left, right, oid)

    def delete(self, oid: int) -> None:
        handle = self._handles.pop(oid, None)
        if handle is None:
            raise ObjectNotFoundError(f"object {oid} has no stored interval")
        self._tree.delete(handle)

    def apply_batch(
        self,
        delete_oids: Sequence[int],
        inserts: Sequence[Tuple[int, float, float]],
    ) -> None:
        """Drop the intervals of ``delete_oids`` and store ``inserts``
        (``(oid, left, right)`` records) in one pass over the tree.

        An object may appear on both sides (its interval is replaced);
        within each side oids must be distinct.  The whole batch is
        checked against the handle table first, so a rejected batch
        leaves the index untouched.
        """
        leaving = set(delete_oids)
        if len(leaving) != len(delete_oids):
            raise DuplicateObjectError("an object is deleted twice in the batch")
        for oid in delete_oids:
            if oid not in self._handles:
                raise ObjectNotFoundError(
                    f"object {oid} has no stored interval"
                )
        arriving = set()
        for oid, _, _ in inserts:
            if oid in arriving or (
                oid in self._handles and oid not in leaving
            ):
                raise DuplicateObjectError(
                    f"object {oid} already has an interval; delete it first"
                )
            arriving.add(oid)
        handles = self._tree.apply_batch(
            [self._handles.pop(oid) for oid in delete_oids],
            [(left, right, oid) for oid, left, right in inserts],
        )
        for (oid, _, _), handle in zip(inserts, handles):
            self._handles[oid] = handle

    def overlapping(self, ql: float, qh: float) -> List[int]:
        return self._tree.overlapping(ql, qh)

    def check_invariants(self) -> None:
        self._tree.check_invariants()
