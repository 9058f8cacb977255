"""A planar (2-D) TPR-tree over moving points (lineage comparator).

The 2-D analogue of :mod:`repro.indexes.tpr`: node entries carry a
**time-parameterized box** — one conservatively growing
:class:`~repro.indexes.tpr.MovingInterval` per axis.  A box meets a
``MORQuery2D`` iff some single instant of the window satisfies both
axis constraints; each axis contributes an *interval* of feasible
times (two linear inequalities), so the test intersects three
intervals and is exact at the box level.

Insertion optimises integrated box area over the horizon ``H`` and
splits on the axis/order of positions at ``t_ref + H/2`` — the TPR
recipe transplanted to two dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import LinearMotion2D, MobileObject2D
from repro.core.predicates import matches_2d
from repro.core.queries import MORQuery1D, MORQuery2D
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.indexes.tpr import MovingInterval
from repro.io_sim.layout import RSTAR_SEGMENT
from repro.io_sim.pager import DiskSimulator, Page
from repro.twod.planar import PlanarModel


@dataclass(frozen=True)
class MovingBox:
    """A time-parameterized rectangle: one moving interval per axis."""

    x: MovingInterval
    y: MovingInterval

    @staticmethod
    def of_motion(motion: LinearMotion2D, t_ref: float) -> "MovingBox":
        return MovingBox(
            MovingInterval.of_motion(motion.x_motion, t_ref),
            MovingInterval.of_motion(motion.y_motion, t_ref),
        )

    def union(self, other: "MovingBox") -> "MovingBox":
        return MovingBox(self.x.union(other.x), self.y.union(other.y))

    def rebased(self, t_ref: float) -> "MovingBox":
        return MovingBox(self.x.rebased(t_ref), self.y.rebased(t_ref))

    @property
    def t_ref(self) -> float:
        return max(self.x.t_ref, self.y.t_ref)

    def area_at(self, t: float) -> float:
        return self.x.extent_at(t) * self.y.extent_at(t)

    def may_meet(self, query: MORQuery2D) -> bool:
        """Exists t in the window where both axis constraints hold.

        Each axis's feasible-``t`` set is an interval, so reusing the
        1-D test with per-axis sub-queries and a shared shrinking
        window is exact: run x's clip first, then y's on what remains.
        """
        x_query = MORQuery1D(query.x1, query.x2, query.t1, query.t2)
        if not self.x.may_meet(x_query):
            return False
        t_lo, t_hi = _feasible_window(self.x, x_query)
        if t_lo > t_hi:
            return False
        y_query = MORQuery1D(query.y1, query.y2, t_lo, t_hi)
        return self.y.may_meet(y_query)


def _feasible_window(
    interval: MovingInterval, query: MORQuery1D
) -> Tuple[float, float]:
    """The sub-window of ``[t1, t2]`` where the interval meets the range."""
    from repro.indexes.tpr import _clip_halfline

    t_lo, t_hi = query.t1, query.t2
    t_lo, t_hi = _clip_halfline(
        t_lo, t_hi, interval.v_lo, query.y2 - interval.lo, interval.t_ref
    )
    if t_lo > t_hi:
        return (t_lo, t_hi)
    return _clip_halfline(
        t_lo, t_hi, -interval.v_hi, interval.hi - query.y1, interval.t_ref
    )


Entry = Tuple[MovingBox, Any]


class PlanarTPRTreeIndex:
    """Planar TPR-tree over ``MobileObject2D`` populations."""

    name = "tpr-tree-2d"

    def __init__(
        self,
        model: PlanarModel,
        horizon: float | None = None,
        page_capacity: int | None = None,
    ) -> None:
        self.model = model
        self.horizon = horizon if horizon is not None else 60.0
        self._disk = DiskSimulator()
        self.capacity = page_capacity or RSTAR_SEGMENT.capacity(
            self._disk.page_size
        )
        if self.capacity < 4:
            raise ValueError(f"page capacity must be >= 4, got {self.capacity}")
        root = self._disk.allocate(self.capacity)
        root.meta["level"] = 0
        self._root_pid = root.pid
        self._motions: Dict[int, LinearMotion2D] = {}
        self._height = 1
        self._now = -math.inf

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._motions)

    @property
    def pages_in_use(self) -> int:
        return self._disk.pages_in_use

    def clear_buffers(self) -> None:
        self._disk.clear_buffer()

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk,)

    def _min_fill(self) -> int:
        return max(2, self.capacity * 2 // 5)

    # -- insertion --------------------------------------------------------------

    def insert(self, obj: MobileObject2D) -> None:
        if obj.oid in self._motions:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.validate(obj.motion)
        self._motions[obj.oid] = obj.motion
        self._now = max(self._now, obj.motion.t0)
        box = MovingBox.of_motion(obj.motion, obj.motion.t0)
        self._insert_entry((box, obj.oid), target_level=0)

    def update(self, obj: MobileObject2D) -> None:
        self.delete(obj.oid)
        self.insert(obj)

    def _cost(self, mbr: MovingBox, candidate: MovingBox) -> float:
        union = mbr.union(candidate)
        t0 = mbr.t_ref
        t1 = t0 + self.horizon
        return (
            union.area_at(t0) + union.area_at(t1)
            - mbr.area_at(t0) - mbr.area_at(t1)
        )

    def _choose_path(
        self, box: MovingBox, target_level: int
    ) -> List[Tuple[Page, Optional[int]]]:
        path: List[Tuple[Page, Optional[int]]] = []
        page = self._disk.read(self._root_pid)
        path.append((page, None))
        while page.meta["level"] > target_level:
            best_slot = 0
            best_key = None
            for slot, (mbr, _) in enumerate(page.items):
                key = (self._cost(mbr, box), mbr.area_at(mbr.t_ref))
                if best_key is None or key < best_key:
                    best_key = key
                    best_slot = slot
            page = self._disk.read(page.items[best_slot][1])
            path.append((page, best_slot))
        return path

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        path = self._choose_path(entry[0], target_level)
        node, _ = path[-1]
        node.items.append(entry)
        self._propagate(path)

    def _propagate(self, path: List[Tuple[Page, Optional[int]]]) -> None:
        for i in range(len(path) - 1, -1, -1):
            node, _ = path[i]
            if len(node.items) > self.capacity:
                sibling_entry = self._split(node)
                if i == 0:
                    self._grow_root(sibling_entry)
                    return
                parent, _ = path[i - 1]
                self._refresh_parent(path, i)
                parent.items.append(sibling_entry)
                continue
            self._disk.write(node)
            if i == 0 or not self._refresh_parent(path, i):
                return  # a clean parent: nothing above changed either

    def _node_mbr(self, node: Page) -> MovingBox:
        anchor = max(box.t_ref for box, _ in node.items)
        mbr = None
        for box, _ in node.items:
            rebased = box.rebased(max(anchor, box.t_ref))
            mbr = rebased if mbr is None else mbr.union(rebased)
        assert mbr is not None
        return mbr

    def _refresh_parent(
        self, path: List[Tuple[Page, Optional[int]]], i: int
    ) -> bool:
        """Re-bound ``path[i]`` in its parent; returns whether the
        entry, and with it the parent page, changed."""
        node, slot = path[i]
        parent, _ = path[i - 1]
        assert slot is not None
        entry = (self._node_mbr(node), node.pid)
        if parent.items[slot] == entry:
            return False
        parent.items[slot] = entry
        return True

    def _split(self, node: Page) -> Entry:
        probe = (
            max(box.t_ref for box, _ in node.items) + self.horizon / 2.0
        )

        def centre(entry: Entry, axis: str) -> float:
            interval = getattr(entry[0], axis)
            lo, hi = interval.bounds_at(probe)
            return (lo + hi) / 2.0

        # Pick the axis with the larger spread of centres at the probe.
        spreads = {}
        for axis in ("x", "y"):
            values = [centre(e, axis) for e in node.items]
            spreads[axis] = max(values) - min(values)
        axis = "x" if spreads["x"] >= spreads["y"] else "y"
        ordered = sorted(node.items, key=lambda e: centre(e, axis))
        k = len(ordered) // 2
        sibling = self._disk.allocate(self.capacity)
        sibling.meta["level"] = node.meta["level"]
        sibling.items = ordered[k:]
        node.items = ordered[:k]
        self._disk.write(node)
        self._disk.write(sibling)
        return (self._node_mbr(sibling), sibling.pid)

    def _grow_root(self, sibling_entry: Entry) -> None:
        old_root = self._disk.read(self._root_pid)
        new_root = self._disk.allocate(self.capacity)
        new_root.meta["level"] = old_root.meta["level"] + 1
        new_root.items = [
            (self._node_mbr(old_root), old_root.pid),
            sibling_entry,
        ]
        self._disk.write(new_root)
        self._root_pid = new_root.pid
        self._height += 1

    # -- deletion -----------------------------------------------------------------

    def delete(self, oid: int) -> None:
        motion = self._motions.pop(oid, None)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        path = self._find_leaf(oid, motion)
        assert path is not None, "stored object missing from the tree"
        leaf, _ = path[-1]
        leaf.items = [e for e in leaf.items if e[1] != oid]
        self._condense(path)

    def _find_leaf(
        self, oid: int, motion: LinearMotion2D
    ) -> Optional[List[Tuple[Page, Optional[int]]]]:
        t_probe = max(motion.t0, self._now)
        x, y = motion.position(t_probe)
        probe = MORQuery2D(x, x, y, y, t_probe, t_probe)
        stack: List[List[Tuple[Page, Optional[int]]]] = [
            [(self._disk.read(self._root_pid), None)]
        ]
        while stack:
            path = stack.pop()
            node, _ = path[-1]
            if node.meta["level"] == 0:
                if any(entry_oid == oid for _, entry_oid in node.items):
                    return path
                continue
            for slot, (mbr, child_pid) in enumerate(node.items):
                if mbr.may_meet(probe):
                    child = self._disk.read(child_pid)
                    stack.append(path + [(child, slot)])
        return None

    def _condense(self, path: List[Tuple[Page, Optional[int]]]) -> None:
        orphans: List[Tuple[Entry, int]] = []
        for i in range(len(path) - 1, 0, -1):
            node, slot = path[i]
            parent, _ = path[i - 1]
            if len(node.items) < self._min_fill():
                orphans.extend(
                    (entry, node.meta["level"]) for entry in node.items
                )
                assert slot is not None
                parent.items.pop(slot)
                self._disk.free(node.pid)
            else:
                self._disk.write(node)
                if not self._refresh_parent(path, i):
                    break
        else:  # the change reached the root
            root, _ = path[0]
            if root.meta["level"] == 0 or len(root.items) != 1:
                self._disk.write(root)  # else _shrink_root frees it
        self._shrink_root()
        for entry, level in orphans:
            self._insert_entry(entry, level)

    def _shrink_root(self) -> None:
        root = self._disk.read(self._root_pid)
        while root.meta["level"] > 0 and len(root.items) == 1:
            child_pid = root.items[0][1]
            self._disk.free(root.pid)
            self._root_pid = child_pid
            self._height -= 1
            root = self._disk.read(child_pid)

    # -- queries --------------------------------------------------------------------

    def query(self, query: MORQuery2D) -> Set[int]:
        result: Set[int] = set()
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            if node.meta["level"] == 0:
                for box, oid in node.items:
                    if box.may_meet(query) and matches_2d(
                        self._motions[oid], query
                    ):
                        result.add(oid)
            else:
                stack.extend(
                    pid for mbr, pid in node.items if mbr.may_meet(query)
                )
        return result
