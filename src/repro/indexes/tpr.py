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

The page mechanics are :class:`~repro.rtree.core.PagedRTree`'s;
:class:`TPRTree` supplies the TPR policies for moving bounds of any
dimension, and :class:`TPRTreeIndex` binds them to one.

Like all TPR-trees, bounds grow stale between touches; the bench
ablation shows both its strength (one structure, no dual transform,
cheap updates) and its cost (looser pruning than the exact dual
methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.core.predicates import matches_1d
from repro.core.queries import MORQuery1D
from repro.errors import DuplicateObjectError
from repro.indexes.base import MobileIndex1D, register_index
from repro.io_sim.layout import RSTAR_SEGMENT
from repro.io_sim.pager import DiskSimulator, Page
from repro.rtree.core import Entry, PagedRTree


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

    def meeting_window(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Tuple[float, float]:
        """The sub-window of ``[t1, t2]`` where the interval meets
        ``[y1, y2]``; empty iff its start exceeds its end.

        The interval meets ``[y1, y2]`` at time ``t`` iff
        ``lo(t) <= y2`` and ``hi(t) >= y1``; both conditions are linear
        in ``t``, so each holds on a half-line, and the window is the
        two half-lines intersected with ``[t1, t2]``.
        """
        # lo(t) <= y2  <=>  v_lo * (t - t_ref) <= y2 - lo
        t_lo, t_hi = _clip_halfline(
            t1, t2, self.v_lo, y2 - self.lo, self.t_ref
        )
        if t_lo > t_hi:
            return (t_lo, t_hi)
        # hi(t) >= y1  <=>  -v_hi * (t - t_ref) <= hi - y1
        return _clip_halfline(
            t_lo, t_hi, -self.v_hi, self.hi - y1, self.t_ref
        )

    def may_meet(self, query: MORQuery1D) -> bool:
        """Conservative overlap with the query's range over its window."""
        t_lo, t_hi = self.meeting_window(
            query.y1, query.y2, query.t1, query.t2
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


class TPRTree(PagedRTree):
    """A TPR-tree over moving points, in the dimension its subclass
    binds through five hooks: ``_leaf_key`` (a motion's bound),
    ``_axes`` (a bound's per-axis :class:`MovingInterval` s), ``_cost``
    (the subtree choice key), ``_probe`` (a point query at one instant)
    and ``_matches`` (the exact leaf predicate)."""

    def __init__(
        self,
        model: Any,
        horizon: float | None = None,
        page_capacity: int | None = None,
    ) -> None:
        self.model = model
        #: Optimisation horizon H: how far ahead inserts/splits optimise.
        self.horizon = horizon if horizon is not None else 60.0
        disk = DiskSimulator()
        self.capacity = page_capacity or RSTAR_SEGMENT.capacity(
            disk.page_size
        )
        if self.capacity < 4:
            raise ValueError(f"page capacity must be >= 4, got {self.capacity}")
        super().__init__(disk, self.capacity)
        #: Latest update time seen; node bounds are valid from their
        #: anchors forward, so probes must happen at or after this.
        self._now = -math.inf

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk,)

    def insert(self, obj: Any) -> None:
        if obj.oid in self._objects:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.validate(obj.motion)
        self._objects[obj.oid] = obj.motion
        self._now = max(self._now, obj.motion.t0)
        self._insert_entry(
            (self._leaf_key(obj.motion), obj.oid), target_level=0
        )

    def query(self, query: Any) -> Set[int]:
        """Descend through time-parameterized bounds; exact leaf filter."""
        result: Set[int] = set()
        stack = [self._root_pid]
        while stack:
            node = self._disk.read(stack.pop())
            if node.meta["level"] == 0:
                for bound, oid in node.items:
                    if bound.may_meet(query) and self._matches(
                        self._objects[oid], query
                    ):
                        result.add(oid)
            else:
                stack.extend(
                    pid for mbr, pid in node.items if mbr.may_meet(query)
                )
        return result

    # -- policies --------------------------------------------------------------

    def _capacity_at(self, level: int) -> int:
        return self.capacity

    def _node_mbr(self, node: Page) -> Any:
        """Tight bound of a node's entries, re-anchored at 'now'-ish.

        Rewriting a node is the TPR-tree's tightening opportunity: the
        union is recomputed from the entries' own (fresher) anchors.
        """
        anchor = max(bound.t_ref for bound, _ in node.items)
        mbr = None
        for bound, _ in node.items:
            rebased = bound.rebased(anchor)
            mbr = rebased if mbr is None else mbr.union(rebased)
        assert mbr is not None
        return mbr

    def _choose_subtree(self, node: Page, bound: Any) -> int:
        return min(
            range(len(node.items)),
            key=lambda slot: self._cost(node.items[slot][0], bound),
        )

    def _split_order(self, node: Page) -> Tuple[List[Entry], int]:
        """The TPR future-sort: order by position at ``t_ref + H/2``
        along the axis whose positions spread widest, cut in half."""
        probe = (
            max(bound.t_ref for bound, _ in node.items) + self.horizon / 2.0
        )

        def centre(entry: Entry, axis: int) -> float:
            lo, hi = self._axes(entry[0])[axis].bounds_at(probe)
            return (lo + hi) / 2.0

        def spread(axis: int) -> float:
            values = [centre(e, axis) for e in node.items]
            return max(values) - min(values)

        axis = max(range(len(self._axes(node.items[0][0]))), key=spread)
        ordered = sorted(node.items, key=lambda e: centre(e, axis))
        return ordered, len(ordered) // 2

    def _visit_test(self, motion: Any) -> Callable[[Any], bool]:
        # Probe at the latest time the tree has seen: every node bound
        # is conservative there, while past times may extrapolate
        # backwards outside ancestor bounds.
        probe = self._probe(motion, max(motion.t0, self._now))
        return lambda mbr: mbr.may_meet(probe)

    def _check_bound(self, bound: Any, child: Page) -> None:
        """``bound`` contains each child entry at the probe times the
        tree relies on: the later anchor, +H and +10H."""
        for entry_bound, _ in child.items:
            base = max(bound.t_ref, entry_bound.t_ref)
            for t in (base, base + self.horizon, base + 10 * self.horizon):
                for outer, inner in zip(
                    self._axes(bound), self._axes(entry_bound)
                ):
                    b_lo, b_hi = outer.bounds_at(t)
                    c_lo, c_hi = inner.bounds_at(t)
                    assert b_lo <= c_lo + 1e-6 and c_hi <= b_hi + 1e-6, (
                        f"bound violation in {child.pid} at t={t}"
                    )


@register_index
class TPRTreeIndex(TPRTree, MobileIndex1D):
    """One-dimensional time-parameterized R-tree over moving points."""

    name = "tpr-tree"
    _matches = staticmethod(matches_1d)

    @property
    def height(self) -> int:
        return self._height

    def _leaf_key(self, motion: LinearMotion1D) -> MovingInterval:
        return MovingInterval.of_motion(motion, motion.t0)

    def _axes(self, bound: MovingInterval) -> Tuple[MovingInterval, ...]:
        return (bound,)

    def _cost(
        self, mbr: MovingInterval, candidate: MovingInterval
    ) -> Tuple[float, float]:
        """Integrated enlargement of ``mbr`` to absorb ``candidate``,
        then ``mbr``'s extent at its anchor."""
        union = mbr.union(candidate)
        t0 = mbr.t_ref
        t1 = t0 + self.horizon
        before = mbr.extent_at(t0) + mbr.extent_at(t1)
        after = union.extent_at(t0) + union.extent_at(t1)
        return (after - before, mbr.extent_at(t0))

    def _probe(self, motion: LinearMotion1D, t: float) -> MORQuery1D:
        y = motion.position(t)
        return MORQuery1D(y, y, t, t)
