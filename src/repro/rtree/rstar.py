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

Every node is one page of the :class:`~repro.io_sim.pager.DiskSimulator`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.duality import ConvexRegion
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.io_sim.pager import DiskSimulator, Page
from repro.rtree.geometry import Rect, bounding_rect

#: Node entry: (rect, child_pid) in internal nodes, (rect, oid) in leaves.
Entry = Tuple[Rect, Any]

#: Fraction of entries removed by forced reinsertion (the R* paper's 30%).
REINSERT_FRACTION = 0.3

#: Minimum node fill fraction (the R* paper's 40%).
MIN_FILL_FRACTION = 0.4


class RStarTree:
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
        root = disk.allocate(leaf_capacity)
        root.meta["level"] = 0
        self._root_pid = root.pid
        self._rects: Dict[Any, Rect] = {}
        self._height = 1
        self._reinserted_levels: Set[int] = set()

    # -- properties --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rects)

    def __contains__(self, oid: Any) -> bool:
        return oid in self._rects

    @property
    def height(self) -> int:
        return self._height

    @property
    def root_pid(self) -> int:
        return self._root_pid

    def rect_of(self, oid: Any) -> Rect:
        try:
            return self._rects[oid]
        except KeyError:
            raise ObjectNotFoundError(f"object {oid!r} is not indexed") from None

    # -- capacity helpers ----------------------------------------------------

    def _capacity_at(self, level: int) -> int:
        return self.leaf_capacity if level == 0 else self.internal_capacity

    def _min_fill_at(self, level: int) -> int:
        return max(2, int(self._capacity_at(level) * MIN_FILL_FRACTION))

    # -- insertion -------------------------------------------------------------

    def insert(self, rect: Rect, oid: Any) -> None:
        """Insert one entry (R* insertion with forced reinsert)."""
        if oid in self._rects:
            raise DuplicateObjectError(f"object {oid!r} already indexed")
        self._rects[oid] = rect
        self._reinserted_levels = set()
        self._insert_entry((rect, oid), target_level=0)

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        path = self._choose_path(entry[0], target_level)
        node, _ = path[-1]
        node.items.append(entry)
        self._propagate(path)

    def _choose_path(
        self, rect: Rect, target_level: int
    ) -> List[Tuple[Page, Optional[int]]]:
        """Descend to ``target_level`` recording ``(page, slot_in_parent)``."""
        path: List[Tuple[Page, Optional[int]]] = []
        page = self.disk.read(self._root_pid)
        path.append((page, None))
        while page.meta["level"] > target_level:
            slot = self._choose_subtree(page, rect)
            page = self.disk.read(page.items[slot][1])
            path.append((page, slot))
        return path

    def _choose_subtree(self, node: Page, rect: Rect) -> int:
        """R* ChooseSubtree: overlap criterion just above the leaves."""
        entries = node.items
        if node.meta["level"] == 1:
            return self._least_overlap_slot(entries, rect)
        best_slot = 0
        best_key = None
        for slot, (mbr, _) in enumerate(entries):
            key = (mbr.enlargement(rect), mbr.area)
            if best_key is None or key < best_key:
                best_key = key
                best_slot = slot
        return best_slot

    @staticmethod
    def _least_overlap_slot(entries: List[Entry], rect: Rect) -> int:
        best_slot = 0
        best_key = None
        for slot, (mbr, _) in enumerate(entries):
            enlarged = mbr.union(rect)
            overlap_delta = sum(
                enlarged.intersection_area(other) - mbr.intersection_area(other)
                for other_slot, (other, _) in enumerate(entries)
                if other_slot != slot
            )
            key = (overlap_delta, mbr.enlargement(rect), mbr.area)
            if best_key is None or key < best_key:
                best_key = key
                best_slot = slot
        return best_slot

    def _propagate(self, path: List[Tuple[Page, Optional[int]]]) -> None:
        """Fix overflows bottom-up and refresh ancestor MBRs.

        Writes the node that took the entry and each ancestor whose
        entries changed; the climb ends at the first child MBR that
        did not move, since nothing above it can have changed.
        """
        for i in range(len(path) - 1, -1, -1):
            node, _ = path[i]
            level = node.meta["level"]
            if len(node.items) > self._capacity_at(level):
                can_reinsert = (
                    self.forced_reinsert
                    and i > 0
                    and level not in self._reinserted_levels
                )
                if can_reinsert:
                    self._reinserted_levels.add(level)
                    self._reinsert(path[: i + 1])
                    return
                sibling_entry = self._split(node)
                if i == 0:
                    self._grow_root(sibling_entry)
                    return
                parent, _ = path[i - 1]
                self._refresh_parent(path, i)
                parent.items.append(sibling_entry)
                continue
            self.disk.write(node)
            if i == 0 or not self._refresh_parent(path, i):
                return

    def _refresh_parent(
        self, path: List[Tuple[Page, Optional[int]]], i: int
    ) -> bool:
        """Keep the parent's entry for ``path[i]`` tight; returns
        whether the entry, and with it the parent, changed."""
        node, slot = path[i]
        parent, _ = path[i - 1]
        assert slot is not None
        entry = (bounding_rect(rect for rect, _ in node.items), node.pid)
        if parent.items[slot] == entry:
            return False
        parent.items[slot] = entry
        return True

    def _split(self, node: Page) -> Entry:
        """R* topological split; returns the new sibling's parent entry."""
        level = node.meta["level"]
        capacity = self._capacity_at(level)
        min_fill = self._min_fill_at(level)
        entries = node.items
        best = None  # (overlap, area, split_list, k)
        for axis in ("x", "y"):
            for bound in ("lo", "hi"):
                ordered = sorted(entries, key=_sort_key(axis, bound))
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
        sibling = self.disk.allocate(node.capacity)
        sibling.meta["level"] = level
        sibling.items = list(ordered[k:])
        node.items = list(ordered[:k])
        self.disk.write(node)
        self.disk.write(sibling)
        return (bounding_rect(r for r, _ in sibling.items), sibling.pid)

    def _grow_root(self, sibling_entry: Entry) -> None:
        old_root = self.disk.read(self._root_pid)
        new_root = self.disk.allocate(self.internal_capacity)
        new_root.meta["level"] = old_root.meta["level"] + 1
        new_root.items = [
            (bounding_rect(r for r, _ in old_root.items), old_root.pid),
            sibling_entry,
        ]
        self.disk.write(new_root)
        self._root_pid = new_root.pid
        self._height += 1

    def _reinsert(self, path: List[Tuple[Page, Optional[int]]]) -> None:
        """Forced reinsertion: evict the farthest 30%, insert them afresh."""
        node, _ = path[-1]
        level = node.meta["level"]
        count = max(1, int(len(node.items) * REINSERT_FRACTION))
        mbr = bounding_rect(r for r, _ in node.items)
        by_distance = sorted(
            node.items, key=lambda e: mbr.center_distance_sq(e[0])
        )
        node.items = by_distance[:-count]
        evicted = by_distance[-count:]
        self.disk.write(node)
        for i in range(len(path) - 1, 0, -1):
            if not self._refresh_parent(path, i):
                break
            self.disk.write(path[i - 1][0])
        # Close-reinsert: nearest evictees first (the R* paper's default).
        evicted.reverse()
        for entry in evicted:
            self._insert_entry(entry, level)

    # -- deletion ----------------------------------------------------------------

    def delete(self, oid: Any) -> Rect:
        """Remove an entry; dissolves underfull nodes (condense tree)."""
        rect = self._rects.pop(oid, None)
        if rect is None:
            raise ObjectNotFoundError(f"object {oid!r} is not indexed")
        path = self._find_leaf(rect, oid)
        assert path is not None, "directory rect missing from the tree"
        leaf, _ = path[-1]
        leaf.items = [e for e in leaf.items if e[1] != oid]
        self._condense(path)
        return rect

    def _find_leaf(
        self, rect: Rect, oid: Any
    ) -> Optional[List[Tuple[Page, Optional[int]]]]:
        stack: List[List[Tuple[Page, Optional[int]]]] = [
            [(self.disk.read(self._root_pid), None)]
        ]
        while stack:
            path = stack.pop()
            node, _ = path[-1]
            if node.meta["level"] == 0:
                if any(entry_oid == oid for _, entry_oid in node.items):
                    return path
                continue
            for slot, (mbr, child_pid) in enumerate(node.items):
                if mbr.contains_rect(rect):
                    child = self.disk.read(child_pid)
                    stack.append(path + [(child, slot)])
        return None

    def _condense(self, path: List[Tuple[Page, Optional[int]]]) -> None:
        """Dissolve underfull nodes bottom-up, then reinsert their
        entries.  Like :meth:`_propagate` it writes only what changed:
        the climb ends at the first child MBR that did not move, and a
        root about to be collapsed is freed unwritten."""
        orphans: List[Tuple[Entry, int]] = []
        for i in range(len(path) - 1, 0, -1):
            node, slot = path[i]
            parent, _ = path[i - 1]
            level = node.meta["level"]
            if len(node.items) < self._min_fill_at(level):
                orphans.extend((entry, level) for entry in node.items)
                assert slot is not None
                parent.items.pop(slot)
                self.disk.free(node.pid)
            else:
                self.disk.write(node)
                if not self._refresh_parent(path, i):
                    break
        else:  # the change reached the root
            root, _ = path[0]
            if root.meta["level"] == 0 or len(root.items) != 1:
                self.disk.write(root)  # else _shrink_root frees it
        self._shrink_root()
        for entry, level in orphans:
            self._reinserted_levels = set()
            self._insert_entry(entry, level)

    def _shrink_root(self) -> None:
        root = self.disk.read(self._root_pid)
        while root.meta["level"] > 0 and len(root.items) == 1:
            child_pid = root.items[0][1]
            self.disk.free(root.pid)
            self._root_pid = child_pid
            self._height -= 1
            root = self.disk.read(child_pid)

    # -- queries --------------------------------------------------------------------

    def search_rect(self, query: Rect) -> List[Any]:
        """Object ids whose stored rectangle intersects ``query``."""
        result: List[Any] = []
        stack = [self._root_pid]
        while stack:
            node = self.disk.read(stack.pop())
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
            node = self.disk.read(stack.pop())
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
            node = self.disk.read(stack.pop())
            if node.meta["level"] == 0:
                result.extend(node.items)
            else:
                stack.extend(pid for _, pid in node.items)
        return result

    # -- invariants ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate MBR containment, fill factors and level consistency."""
        count = self._check_node(self._root_pid, is_root=True)
        assert count == len(self._rects), (
            f"entry count mismatch: {count} != {len(self._rects)}"
        )

    def _check_node(self, pid: int, is_root: bool) -> int:
        node = self.disk.peek(pid)
        assert node is not None, f"dangling page {pid}"
        level = node.meta["level"]
        if not is_root:
            assert len(node.items) >= self._min_fill_at(level), (
                f"underfull node {pid}"
            )
        assert len(node.items) <= self._capacity_at(level), f"overfull {pid}"
        if level == 0:
            for rect, oid in node.items:
                assert self._rects.get(oid) == rect, f"stale entry for {oid}"
            return len(node.items)
        count = 0
        for mbr, child_pid in node.items:
            child = self.disk.peek(child_pid)
            assert child is not None
            assert child.meta["level"] == level - 1, "level mismatch"
            actual = bounding_rect(r for r, _ in child.items)
            assert mbr == actual, f"stale MBR for child {child_pid}"
            count += self._check_node(child_pid, is_root=False)
        return count


def _sort_key(axis: str, bound: str):
    if axis == "x":
        if bound == "lo":
            return lambda e: (e[0].lo_x, e[0].hi_x)
        return lambda e: (e[0].hi_x, e[0].lo_x)
    if bound == "lo":
        return lambda e: (e[0].lo_y, e[0].hi_y)
    return lambda e: (e[0].hi_y, e[0].lo_y)
