"""External-memory partition tree (paper §3.4; Agarwal et al. '98 shape).

A static tree built by recursive simplicial partitioning:

* internal nodes hold ``(triangle, child_pid)`` entries, one page each;
* leaves hold ``(point, oid)`` records, at most ``B`` per page;
* a node over ``m`` points is partitioned into roughly ``√(m / B)``
  cells, so the fan-out grows towards the root, mirroring the
  ``√|S|``-sized partitions of the main-memory construction.

Simplex (wedge) queries visit a child when its triangle may meet the
query region; children whose triangle lies fully inside are *reported*
wholesale by scanning their subtree's leaves (the ``k = K/B`` output
term).  With the empirical ``O(√r)`` crossing number of
:mod:`repro.partition.simplicial`, query cost tracks the paper's
``O(n^{1/2+ε} + k)`` bound; the ablation benchmark measures it.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.duality import ConvexRegion
from repro.io_sim.layout import KD_POINT, PARTITION_ENTRY
from repro.io_sim.pager import DiskSimulator
from repro.partition.simplicial import (
    ConvexCell,
    Point,
    simplicial_partition,
)

LEAF = "leaf"
INTERNAL = "internal"


class PartitionTree:
    """Static external partition tree over ``(point, oid)`` records."""

    def __init__(
        self,
        disk: DiskSimulator,
        entries: Sequence[Tuple[Point, Any]],
        leaf_capacity: Optional[int] = None,
        internal_capacity: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.disk = disk
        self.leaf_capacity = leaf_capacity or KD_POINT.capacity(disk.page_size)
        self.internal_capacity = internal_capacity or PARTITION_ENTRY.capacity(
            disk.page_size
        )
        self._rng = random.Random(seed)
        self._size = len(entries)
        self._pids: List[int] = []
        self._root_pid = self._build(list(entries))

    def __len__(self) -> int:
        return self._size

    @property
    def root_pid(self) -> int:
        return self._root_pid

    @property
    def pages(self) -> List[int]:
        """Every page owned by this tree (for teardown by the dynamizer)."""
        return list(self._pids)

    def _allocate(self, capacity: int):
        page = self.disk.allocate(capacity)
        self._pids.append(page.pid)
        return page

    def _build(self, entries: List[Tuple[Point, Any]]) -> int:
        if len(entries) <= self.leaf_capacity:
            page = self._allocate(max(2, self.leaf_capacity))
            page.meta["kind"] = LEAF
            page.items = entries
            self.disk.write(page)
            return page.pid
        r = max(2, min(
            self.internal_capacity,
            math.isqrt(math.ceil(len(entries) / self.leaf_capacity)) + 1,
        ))
        cells = simplicial_partition(entries, r, self._rng)
        page = self._allocate(self.internal_capacity)
        page.meta["kind"] = INTERNAL
        for cell_entries, triangle in cells:
            child_pid = self._build_or_leaf(cell_entries, len(entries))
            page.items.append((triangle, child_pid))
        self.disk.write(page)
        return page.pid

    def _build_or_leaf(
        self, entries: List[Tuple[Point, Any]], parent_size: int
    ) -> int:
        # Guard against non-shrinking partitions (duplicate-heavy data).
        if len(entries) >= parent_size:
            return self._build_leaf_chain(entries)
        return self._build(entries)

    def _build_leaf_chain(self, entries: List[Tuple[Point, Any]]) -> int:
        """Degenerate fallback: a chained run of leaves (scan to report)."""
        first: Optional[int] = None
        prev = None
        for start in range(0, len(entries), self.leaf_capacity):
            page = self._allocate(max(2, self.leaf_capacity))
            page.meta["kind"] = LEAF
            page.items = entries[start : start + self.leaf_capacity]
            self.disk.write(page)
            if first is None:
                first = page.pid
            if prev is not None:
                prev.meta["chain"] = page.pid
                self.disk.write(prev)
            prev = page
        assert first is not None
        return first

    # -- queries --------------------------------------------------------------

    def query(self, region: ConvexRegion) -> List[Any]:
        """Object ids of all points inside the convex query region."""
        result: List[Any] = []
        self._query_node(self._root_pid, region, result)
        return result

    def _query_node(self, pid: int, region: ConvexRegion, out: List[Any]) -> None:
        page = self.disk.read(pid)
        if page.meta["kind"] == LEAF:
            out.extend(
                oid for point, oid in page.items if region.contains(*point)
            )
            chain = page.meta.get("chain")
            if chain is not None:
                self._query_node(chain, region, out)
            return
        for triangle, child_pid in page.items:
            if triangle.outside_region(region):
                continue
            if triangle.inside_region(region):
                self._report_subtree(child_pid, out)
            else:
                self._query_node(child_pid, region, out)

    def _report_subtree(self, pid: int, out: List[Any]) -> None:
        page = self.disk.read(pid)
        if page.meta["kind"] == LEAF:
            out.extend(oid for _, oid in page.items)
            chain = page.meta.get("chain")
            if chain is not None:
                self._report_subtree(chain, out)
            return
        for _, child_pid in page.items:
            self._report_subtree(child_pid, out)

    def items(self) -> List[Tuple[Point, Any]]:
        """All records (test helper)."""
        result: List[Tuple[Point, Any]] = []
        self._collect(self._root_pid, result)
        return result

    def _collect(self, pid: int, out: List[Tuple[Point, Any]]) -> None:
        page = self.disk.peek(pid)
        assert page is not None
        if page.meta["kind"] == LEAF:
            out.extend(page.items)
            chain = page.meta.get("chain")
            if chain is not None:
                self._collect(chain, out)
            return
        for _, child_pid in page.items:
            self._collect(child_pid, out)

    def destroy(self) -> None:
        """Free every page (used by the dynamizer on rebuilds)."""
        for pid in self._pids:
            self.disk.free(pid)
        self._pids = []

    # -- diagnostics -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Triangles contain their subtree's points; sizes add up."""
        count = self._check(self._root_pid, None)
        assert count == self._size, f"size mismatch {count} != {self._size}"

    def _check(self, pid: int, triangle: Optional[ConvexCell]) -> int:
        page = self.disk.peek(pid)
        assert page is not None, f"dangling page {pid}"
        if page.meta["kind"] == LEAF:
            assert len(page.items) <= self.leaf_capacity, f"overfull leaf {pid}"
            for point, _ in page.items:
                if triangle is not None:
                    assert triangle.contains(point), (
                        f"point {point} escapes its cell triangle"
                    )
            chain = page.meta.get("chain")
            extra = self._check(chain, triangle) if chain is not None else 0
            return len(page.items) + extra
        assert len(page.items) <= self.internal_capacity
        total = 0
        for child_triangle, child_pid in page.items:
            total += self._check(child_pid, child_triangle)
        return total
