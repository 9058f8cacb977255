"""A one-dimensional TPR-tree: the paper's direct successor, as a
comparator (extension beyond the paper).

The paper's closing problem — indexing motion *without* leaving the
R-tree world — was answered a year later by the time-parameterized
R-tree (Šaltenis et al., SIGMOD 2000), which this module implements in
its 1-D form so the library can compare the lineage head-to-head:

* every node entry carries a **time-parameterized interval**
  ``[lo + v_lo (t - t_ref),  hi + v_hi (t - t_ref)]`` that
  conservatively bounds its subtree at every ``t >= t_ref``
  (``v_lo = min`` child velocity, ``v_hi = max``);
* a MOR query ``[y1, y2] x [t1, t2]`` visits an entry iff the
  parameterized interval intersects the range somewhere in the window —
  two linear inequalities intersected with ``[t1, t2]``;
* inserts choose the child minimising *integrated* interval enlargement
  over a horizon ``H`` (evaluated at ``t_ref`` and ``t_ref + H``), and
  splits partition entries by their position at ``t_ref + H/2`` — the
  TPR trick of optimising for the queried future rather than now;
* bounds are tightened whenever a node is rewritten (insert path,
  delete condensation), the "update-time tightening" of the original.

Like all TPR-trees, bounds grow stale between touches; the bench
ablation shows both its strength (one structure, no dual transform,
cheap updates) and its cost (looser pruning than the exact dual
methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import LinearMotion1D, MobileObject1D, MotionModel
from repro.core.predicates import matches_1d
from repro.core.queries import MORQuery1D
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.indexes.base import MobileIndex1D, register_index
from repro.io_sim.layout import RSTAR_SEGMENT
from repro.io_sim.pager import DiskSimulator, Page


@dataclass(frozen=True)
class MovingInterval:
    """A conservatively growing interval, anchored at ``t_ref``."""

    lo: float
    hi: float
    v_lo: float
    v_hi: float
    t_ref: float

    def bounds_at(self, t: float) -> Tuple[float, float]:
        dt = t - self.t_ref
        return (self.lo + self.v_lo * dt, self.hi + self.v_hi * dt)

    @staticmethod
    def of_motion(motion: LinearMotion1D, t_ref: float) -> "MovingInterval":
        y = motion.position(t_ref)
        return MovingInterval(y, y, motion.v, motion.v, t_ref)

    def rebased(self, t_ref: float) -> "MovingInterval":
        lo, hi = self.bounds_at(t_ref)
        return MovingInterval(lo, hi, self.v_lo, self.v_hi, t_ref)

    def union(self, other: "MovingInterval") -> "MovingInterval":
        """The tightest moving interval containing both (at self.t_ref)."""
        o = other.rebased(self.t_ref)
        return MovingInterval(
            min(self.lo, o.lo),
            max(self.hi, o.hi),
            min(self.v_lo, o.v_lo),
            max(self.v_hi, o.v_hi),
            self.t_ref,
        )

    def extent_at(self, t: float) -> float:
        lo, hi = self.bounds_at(t)
        return max(0.0, hi - lo)

    def may_meet(self, query: MORQuery1D) -> bool:
        """Conservative overlap with the query's range over its window.

        The interval meets ``[y1, y2]`` at time ``t`` iff
        ``lo(t) <= y2`` and ``hi(t) >= y1``; both conditions are linear
        in ``t``, so each holds on a half-line, and the test is whether
        the two half-lines and ``[t1, t2]`` share a point.
        """
        t_lo, t_hi = query.t1, query.t2
        # lo(t) <= y2  <=>  v_lo * (t - t_ref) <= y2 - lo
        t_lo, t_hi = _clip_halfline(
            t_lo, t_hi, self.v_lo, query.y2 - self.lo, self.t_ref
        )
        if t_lo > t_hi:
            return False
        # hi(t) >= y1  <=>  -v_hi * (t - t_ref) <= hi - y1
        t_lo, t_hi = _clip_halfline(
            t_lo, t_hi, -self.v_hi, self.hi - query.y1, self.t_ref
        )
        return t_lo <= t_hi


def _clip_halfline(
    t_lo: float, t_hi: float, slope: float, rhs: float, t_ref: float
) -> Tuple[float, float]:
    """Clip ``[t_lo, t_hi]`` to ``slope * (t - t_ref) <= rhs``, slackened.

    The clip is inflated by a relative epsilon: ``may_meet`` is a
    conservative pruning test, and exact-boundary probes (an object
    sitting precisely on its interval edge) must never be pruned by
    roundoff.
    """
    if slope == 0:
        if rhs < -1e-9 * (1.0 + abs(t_ref)):
            return (1.0, 0.0)  # empty
        return (t_lo, t_hi)
    boundary = t_ref + rhs / slope
    slack = 1e-9 * (1.0 + abs(boundary))
    if slope > 0:
        return (t_lo, min(t_hi, boundary + slack))
    return (max(t_lo, boundary - slack), t_hi)


#: Node entry: (MovingInterval, child_pid) internal, (MovingInterval, oid) leaf.
Entry = Tuple[MovingInterval, Any]


@register_index
class TPRTreeIndex(MobileIndex1D):
    """One-dimensional time-parameterized R-tree over moving points."""

    name = "tpr-tree"

    def __init__(
        self,
        model: MotionModel,
        horizon: float | None = None,
        page_capacity: int | None = None,
    ) -> None:
        super().__init__(model)
        #: Optimisation horizon H: how far ahead inserts/splits optimise.
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
        self._motions: Dict[int, LinearMotion1D] = {}
        self._height = 1
        #: Latest update time seen; node bounds are valid from their
        #: anchors forward, so probes must happen at or after this.
        self._now = -math.inf

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._motions)

    @property
    def height(self) -> int:
        return self._height

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk,)

    def _min_fill(self) -> int:
        return max(2, self.capacity * 2 // 5)

    # -- insertion --------------------------------------------------------------

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self._motions:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.validate(obj.motion)
        self._motions[obj.oid] = obj.motion
        self._now = max(self._now, obj.motion.t0)
        interval = MovingInterval.of_motion(obj.motion, obj.motion.t0)
        self._insert_entry((interval, obj.oid), target_level=0)

    def _cost(self, mbr: MovingInterval, candidate: MovingInterval) -> float:
        """Integrated enlargement of ``mbr`` to absorb ``candidate``."""
        union = mbr.union(candidate)
        t0 = mbr.t_ref
        t1 = t0 + self.horizon
        before = mbr.extent_at(t0) + mbr.extent_at(t1)
        after = union.extent_at(t0) + union.extent_at(t1)
        return after - before

    def _choose_path(
        self, interval: MovingInterval, target_level: int
    ) -> List[Tuple[Page, Optional[int]]]:
        path: List[Tuple[Page, Optional[int]]] = []
        page = self._disk.read(self._root_pid)
        path.append((page, None))
        while page.meta["level"] > target_level:
            best_slot = 0
            best_key = None
            for slot, (mbr, _) in enumerate(page.items):
                key = (self._cost(mbr, interval), mbr.extent_at(mbr.t_ref))
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

    def _node_mbr(self, node: Page) -> MovingInterval:
        """Tight bound of a node's entries, re-anchored at 'now'-ish.

        Rewriting a node is the TPR-tree's tightening opportunity: the
        union is recomputed from the entries' own (fresher) anchors.
        """
        mbr = None
        anchor = max(interval.t_ref for interval, _ in node.items)
        for interval, _ in node.items:
            rebased = interval.rebased(max(anchor, interval.t_ref))
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
        """Split by position at ``t_ref + H/2`` (the TPR future-sort)."""
        probe = (
            max(interval.t_ref for interval, _ in node.items)
            + self.horizon / 2.0
        )
        ordered = sorted(
            node.items,
            key=lambda e: sum(e[0].bounds_at(probe)) / 2.0,
        )
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
        self, oid: int, motion: LinearMotion1D
    ) -> Optional[List[Tuple[Page, Optional[int]]]]:
        # Probe at the latest time the tree has seen: every node bound
        # is conservative there, while past times may extrapolate
        # backwards outside ancestor bounds.
        t_probe = max(motion.t0, self._now)
        y_probe = motion.position(t_probe)
        probe = MORQuery1D(y_probe, y_probe, t_probe, t_probe)
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

    def query(self, query: MORQuery1D) -> Set[int]:
        """Descend through time-parameterized bounds; exact leaf filter."""
        result: Set[int] = set()
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            if node.meta["level"] == 0:
                for interval, oid in node.items:
                    if interval.may_meet(query) and matches_1d(
                        self._motions[oid], query
                    ):
                        result.add(oid)
            else:
                stack.extend(
                    pid for mbr, pid in node.items if mbr.may_meet(query)
                )
        return result

    # -- invariants -------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Bounds must conservatively contain subtrees at all t >= anchor."""
        count = self._check_node(self._root_pid, None, is_root=True)
        assert count == len(self._motions), "entry count mismatch"

    def _check_node(
        self, pid: int, bound: Optional[MovingInterval], is_root: bool
    ) -> int:
        node = self._disk.peek(pid)
        assert node is not None, f"dangling page {pid}"
        if not is_root:
            assert len(node.items) >= self._min_fill(), f"underfull {pid}"
        assert len(node.items) <= self.capacity, f"overfull {pid}"
        count = 0
        for interval, payload in node.items:
            if bound is not None:
                # Containment at the probe times we rely on.
                base = max(bound.t_ref, interval.t_ref)
                for t in (base, base + self.horizon, base + 10 * self.horizon):
                    b_lo, b_hi = bound.bounds_at(t)
                    c_lo, c_hi = interval.bounds_at(t)
                    assert b_lo <= c_lo + 1e-6 and c_hi <= b_hi + 1e-6, (
                        f"bound violation in {pid} at t={t}"
                    )
            if node.meta["level"] == 0:
                motion = self._motions.get(payload)
                assert motion is not None, f"stale leaf entry {payload}"
                count += 1
            else:
                count += self._check_node(payload, interval, is_root=False)
        return count
