"""A dynamic, disk-based R*-tree (Beckmann et al., SIGMOD 1990).

The paper uses the R*-tree twice: as the *baseline* that stores raw
trajectory segments (§3.1, shown to perform poorly — Figures 6-9) and as
a candidate point access method over Hough-X dual points (§3.5.1, where
its "squarish" clustering loses to kd-style splits).

Implemented features:

* ChooseSubtree with minimum overlap enlargement at the leaf level and
  minimum area enlargement above it;
* the R* split: axis by minimum margin sum, distribution by minimum
  overlap (ties by area);
* forced reinsertion of the 30% farthest entries on first overflow per
  level per insertion;
* deletion with tree condensation (underfull nodes dissolved and their
  entries reinserted at their original level);
* rectangle window search and convex linear-constraint search (the
  Goldstein et al. procedure used for simplex queries, §3.5.1).

Every node is one page of the :class:`~repro.io_sim.pager.DiskSimulator`;
the page mechanics are :class:`~repro.rtree.core.PagedRTree`'s, and this
module supplies the R* policies as its hooks.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set, Tuple

from repro.core.duality import ConvexRegion
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.io_sim.pager import DiskSimulator, Page
from repro.rtree.core import Entry, PagedRTree, Path
from repro.rtree.geometry import Rect, bounding_rect

#: Fraction of entries removed by forced reinsertion (the R* paper's 30%).
REINSERT_FRACTION = 0.3


class RStarTree(PagedRTree):
    """Disk-based R*-tree over ``(Rect, oid)`` entries.

    ``oid`` keys must be unique; the tree remembers each entry's
    rectangle so callers delete by id alone (the directory lookup is a
    catalog operation and is not charged I/O, mirroring how the paper's
    systems keep record ids).
    """

    def __init__(
        self,
        disk: DiskSimulator,
        leaf_capacity: int,
        internal_capacity: Optional[int] = None,
        forced_reinsert: bool = True,
    ) -> None:
        if leaf_capacity < 4:
            raise ValueError(f"leaf capacity must be >= 4, got {leaf_capacity}")
        self.disk = disk
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity or leaf_capacity
        if self.internal_capacity < 4:
            raise ValueError(
                f"internal capacity must be >= 4, got {self.internal_capacity}"
            )
        self.forced_reinsert = forced_reinsert
        super().__init__(disk, leaf_capacity)
        self._reinserted_levels: Set[int] = set()

    # -- properties --------------------------------------------------------

    def __contains__(self, oid: Any) -> bool:
        return oid in self._objects

    @property
    def height(self) -> int:
        return self._height

    @property
    def root_pid(self) -> int:
        return self._root_pid

    def rect_of(self, oid: Any) -> Rect:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFoundError(f"object {oid!r} is not indexed") from None

    # -- policies --------------------------------------------------------------

    def _capacity_at(self, level: int) -> int:
        return self.leaf_capacity if level == 0 else self.internal_capacity

    def _node_mbr(self, node: Page) -> Rect:
        return bounding_rect(rect for rect, _ in node.items)

    def _visit_test(self, rect: Rect) -> Callable[[Rect], bool]:
        return lambda mbr: mbr.contains_rect(rect)

    def _check_bound(self, mbr: Rect, child: Page) -> None:
        assert mbr == self._node_mbr(child), f"stale MBR for child {child.pid}"

    # -- insertion -------------------------------------------------------------

    def insert(self, rect: Rect, oid: Any) -> None:
        """Insert one entry (R* insertion with forced reinsert)."""
        if oid in self._objects:
            raise DuplicateObjectError(f"object {oid!r} already indexed")
        self._objects[oid] = rect
        self._start_insertion()
        self._insert_entry((rect, oid), target_level=0)

    def _choose_subtree(self, node: Page, rect: Rect) -> int:
        """R* ChooseSubtree: least overlap enlargement just above the
        leaves, least area enlargement higher up (ties by area)."""
        entries = node.items

        def key(slot: int) -> Tuple[float, ...]:
            mbr = entries[slot][0]
            cost = (mbr.enlargement(rect), mbr.area)
            if node.meta["level"] != 1:
                return cost
            enlarged = mbr.union(rect)
            overlap_delta = sum(
                enlarged.intersection_area(other) - mbr.intersection_area(other)
                for other_slot, (other, _) in enumerate(entries)
                if other_slot != slot
            )
            return (overlap_delta,) + cost

        return min(range(len(entries)), key=key)

    def _split_order(self, node: Page) -> Tuple[List[Entry], int]:
        """R* topological split: axis by minimum margin sum,
        distribution by minimum overlap (ties by area)."""
        min_fill = self._min_fill_at(node.meta["level"])
        best = None  # (key, (overlap, area, ordered, k))
        for axis in ("x", "y"):
            for bound in ("lo", "hi"):
                ordered = sorted(node.items, key=_sort_key(axis, bound))
                margin_total = 0.0
                candidates = []
                for k in range(min_fill, len(ordered) - min_fill + 1):
                    left = bounding_rect(r for r, _ in ordered[:k])
                    right = bounding_rect(r for r, _ in ordered[k:])
                    margin_total += left.margin + right.margin
                    candidates.append(
                        (
                            left.intersection_area(right),
                            left.area + right.area,
                            ordered,
                            k,
                        )
                    )
                best_candidate = min(candidates, key=lambda c: (c[0], c[1]))
                key = (margin_total, best_candidate[0], best_candidate[1])
                if best is None or key < best[0]:
                    best = (key, best_candidate)
        assert best is not None
        _, (_, _, ordered, k) = best
        return ordered, k

    # -- forced reinsert -------------------------------------------------------

    def _start_insertion(self) -> None:
        self._reinserted_levels = set()

    def _overflow(self, path: Path, i: int) -> bool:
        """Forced reinsert on the first overflow per level per
        insertion, below the root; any other overflow splits."""
        level = path[i][0].meta["level"]
        if (
            not self.forced_reinsert
            or i == 0
            or level in self._reinserted_levels
        ):
            return False
        self._reinserted_levels.add(level)
        self._reinsert(path[: i + 1])
        return True

    def _reinsert(self, path: Path) -> None:
        """Forced reinsertion: evict the farthest 30%, insert them afresh."""
        node, _ = path[-1]
        level = node.meta["level"]
        count = max(1, int(len(node.items) * REINSERT_FRACTION))
        mbr = self._node_mbr(node)
        by_distance = sorted(
            node.items, key=lambda e: mbr.center_distance_sq(e[0])
        )
        node.items = by_distance[:-count]
        evicted = by_distance[-count:]
        self._disk.write(node)
        for i in range(len(path) - 1, 0, -1):
            if not self._refresh_parent(path, i):
                break
            self._disk.write(path[i - 1][0])
        # Close-reinsert: nearest evictees first (the R* paper's default).
        evicted.reverse()
        for entry in evicted:
            self._insert_entry(entry, level)

    # -- queries --------------------------------------------------------------------

    def search_rect(self, query: Rect) -> List[Any]:
        """Object ids whose stored rectangle intersects ``query``."""
        result: List[Any] = []
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            if node.meta["level"] == 0:
                result.extend(
                    oid for rect, oid in node.items if rect.intersects(query)
                )
            else:
                stack.extend(
                    pid for rect, pid in node.items if rect.intersects(query)
                )
        return result

    def search_region(self, region: ConvexRegion) -> List[Tuple[Rect, Any]]:
        """Entries whose rectangle may intersect a convex constraint region.

        This is the linear-constraint search of Goldstein et al.: descend
        pruning nodes whose MBR is provably outside some half-plane.  The
        returned candidates still need an exact per-object filter (the
        MBR test is conservative).
        """
        result: List[Tuple[Rect, Any]] = []
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            for rect, payload in node.items:
                if region.may_intersect_rect(
                    rect.lo_x, rect.lo_y, rect.hi_x, rect.hi_y
                ):
                    if node.meta["level"] == 0:
                        result.append((rect, payload))
                    else:
                        stack.append(payload)
        return result

    def items(self) -> List[Entry]:
        """All leaf entries (full scan; test helper)."""
        result: List[Entry] = []
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            if node.meta["level"] == 0:
                result.extend(node.items)
            else:
                stack.extend(pid for _, pid in node.items)
        return result


def _sort_key(axis: str, bound: str):
    if axis == "x":
        if bound == "lo":
            return lambda e: (e[0].lo_x, e[0].hi_x)
        return lambda e: (e[0].hi_x, e[0].lo_x)
    if bound == "lo":
        return lambda e: (e[0].lo_y, e[0].hi_y)
    return lambda e: (e[0].hi_y, e[0].lo_y)
