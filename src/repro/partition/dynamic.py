"""Dynamization of the partition tree via Overmars' logarithmic method.

Simplex reporting is a *decomposable* query (the answer over a union of
sets is the union of per-set answers), so Overmars' classic technique
applies (paper §3.4): keep static partition trees of doubling sizes.

* **Insert**: collect the contents of the occupied slots ``0..j-1``
  (where ``j`` is the first empty slot), add the new point, and rebuild
  one static tree of size ``2^j`` in slot ``j``.  Amortised
  ``O(log² N)`` work, matching the paper's ``O(log² N)`` I/Os.
* **Delete**: *weak* deletion — the object id goes into a tombstone set
  that filters query answers; when tombstones reach half the stored
  population, everything is rebuilt from scratch (amortised
  logarithmic).
* **Query**: union of the per-slot static queries minus tombstones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.duality import ConvexRegion
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.io_sim.pager import DiskSimulator
from repro.partition.simplicial import Point
from repro.partition.tree import PartitionTree


class DynamicPartitionTree:
    """Insert/delete/query wrapper over static partition trees."""

    def __init__(
        self,
        disk: DiskSimulator,
        leaf_capacity: Optional[int] = None,
        internal_capacity: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.disk = disk
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity
        self._seed = seed
        self._slots: List[Optional[PartitionTree]] = []
        self._points: Dict[Any, Point] = {}
        # Records are stored under (oid, version) so that deleting and
        # re-inserting the same id (the standard update idiom) cannot
        # tombstone the fresh record along with the stale one.
        self._versions: Dict[Any, int] = {}
        self._next_version = 0
        self._tombstones: Set[Any] = set()  # holds (oid, version) pairs

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, oid: Any) -> bool:
        return oid in self._points

    # -- updates -----------------------------------------------------------------

    def insert(self, point: Point, oid: Any) -> None:
        if oid in self._points:
            raise DuplicateObjectError(f"object {oid!r} already indexed")
        point = (float(point[0]), float(point[1]))
        self._points[oid] = point
        self._next_version += 1
        self._versions[oid] = self._next_version
        carried: List[Tuple[Point, Any]] = [(point, (oid, self._next_version))]
        slot = 0
        while slot < len(self._slots) and self._slots[slot] is not None:
            tree = self._slots[slot]
            assert tree is not None
            carried.extend(tree.items())
            tree.destroy()
            self._slots[slot] = None
            slot += 1
        if slot == len(self._slots):
            self._slots.append(None)
        # Drop tombstoned records for free while we are rebuilding anyway;
        # their tombstones are no longer needed once the records are gone.
        dropped = {o for _, o in carried if o in self._tombstones}
        carried = [(p, o) for (p, o) in carried if o not in dropped]
        self._tombstones.difference_update(dropped)
        self._slots[slot] = self._make_tree(carried)

    def delete(self, oid: Any) -> None:
        if oid not in self._points:
            raise ObjectNotFoundError(f"object {oid!r} is not indexed")
        del self._points[oid]
        self._tombstones.add((oid, self._versions.pop(oid)))
        stored = len(self._points) + len(self._tombstones)
        if self._tombstones and len(self._tombstones) * 2 >= stored:
            self._rebuild_all()

    def _rebuild_all(self) -> None:
        for i, tree in enumerate(self._slots):
            if tree is not None:
                tree.destroy()
                self._slots[i] = None
        self._tombstones.clear()
        entries = [
            (p, (oid, self._versions[oid])) for oid, p in self._points.items()
        ]
        if not entries:
            return
        slot = max(0, (len(entries) - 1).bit_length() - 1)
        while slot >= len(self._slots):
            self._slots.append(None)
        self._slots[slot] = self._make_tree(entries)

    def _make_tree(self, entries: List[Tuple[Point, Any]]) -> PartitionTree:
        self._seed += 1
        return PartitionTree(
            self.disk,
            entries,
            leaf_capacity=self.leaf_capacity,
            internal_capacity=self.internal_capacity,
            seed=self._seed,
        )

    # -- queries ------------------------------------------------------------------

    def query(self, region: ConvexRegion) -> Set[Any]:
        result: Set[Any] = set()
        for tree in self._slots:
            if tree is not None:
                result.update(tree.query(region))
        return {oid for (oid, _) in result - self._tombstones}

    def check_invariants(self) -> None:
        seen: Set[Any] = set()
        for tree in self._slots:
            if tree is None:
                continue
            tree.check_invariants()
            for _, key in tree.items():
                assert key not in seen, f"record {key!r} stored twice"
                seen.add(key)
        live = {oid for (oid, _) in seen - self._tombstones}
        assert live == set(self._points), "slot contents diverge from catalog"
        assert self._tombstones <= seen, "tombstone for an unstored record"
