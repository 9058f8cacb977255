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
recipe transplanted to two dimensions.  The tree itself is
:class:`~repro.indexes.tpr.TPRTree`; this module supplies the box and
the planar hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.model import LinearMotion2D, MobileObject2D
from repro.core.predicates import matches_2d
from repro.core.queries import MORQuery2D
from repro.indexes.tpr import MovingInterval, TPRTree


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

        Each axis's feasible-``t`` set is an interval, so a shared
        shrinking window is exact: x's window first, then y's inside it.
        """
        t_lo, t_hi = self.x.meeting_window(
            query.x1, query.x2, query.t1, query.t2
        )
        if t_lo > t_hi:
            return False
        t_lo, t_hi = self.y.meeting_window(query.y1, query.y2, t_lo, t_hi)
        return t_lo <= t_hi


class PlanarTPRTreeIndex(TPRTree):
    """Planar TPR-tree over ``MobileObject2D`` populations."""

    name = "tpr-tree-2d"
    _matches = staticmethod(matches_2d)

    @property
    def pages_in_use(self) -> int:
        return self._disk.pages_in_use

    def clear_buffers(self) -> None:
        self._disk.clear_buffer()

    def update(self, obj: MobileObject2D) -> None:
        self.delete(obj.oid)
        self.insert(obj)

    def _leaf_key(self, motion: LinearMotion2D) -> MovingBox:
        return MovingBox.of_motion(motion, motion.t0)

    def _axes(self, box: MovingBox) -> Tuple[MovingInterval, ...]:
        return (box.x, box.y)

    def _cost(
        self, mbr: MovingBox, candidate: MovingBox
    ) -> Tuple[float, float]:
        """Integrated area enlargement over the horizon, then area now."""
        union = mbr.union(candidate)
        t0 = mbr.t_ref
        t1 = t0 + self.horizon
        return (
            union.area_at(t0) + union.area_at(t1)
            - mbr.area_at(t0) - mbr.area_at(t1),
            mbr.area_at(t0),
        )

    def _probe(self, motion: LinearMotion2D, t: float) -> MORQuery2D:
        x, y = motion.position(t)
        return MORQuery2D(x, x, y, y, t, t)
