"""Hough-X dual point methods (§3.5.1).

Both indexes map each motion to its dual point ``(v, a)`` and answer the
MOR query as the Proposition 1 wedge, searched with the Goldstein et al.
linear-constraint procedure.  Velocity signs get separate structures
(the wedge differs per sign — Proposition 1).

Two variants share the machinery:

* :class:`DualKDTreeIndex` — the external kd-tree (LSD/hBΠ family).
  The paper's recommended point method: kd splits use both dual
  dimensions, matching the skewed dual distribution (Figure 3).
* :class:`DualRTreeIndex` — an R*-tree over the same points, included
  to reproduce the paper's claim that R-trees split "squarishly" and
  lose on this workload.

Intercepts are measured at a fixed reference time ``t_ref``; wrap these
indexes in :class:`~repro.core.rotation.RotatingIndex` to keep
intercepts bounded across generations (§3.2).
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.core.duality import hough_x, mor_wedge
from repro.core.model import MobileObject1D, MotionModel
from repro.core.queries import MORQuery1D
from repro.errors import ObjectNotFoundError
from repro.indexes.base import MobileIndex1D, register_index
from repro.io_sim.layout import KD_POINT, RSTAR_RECT
from repro.io_sim.pager import DiskSimulator
from repro.kdtree.lsd import KDTree
from repro.kdtree.regions import WedgeRegion
from repro.rtree.geometry import Rect
from repro.rtree.rstar import RStarTree


class _DualPointIndex(MobileIndex1D):
    """Shared sign-splitting and dual-transform logic."""

    def __init__(self, model: MotionModel, t_ref: float = 0.0) -> None:
        super().__init__(model)
        self.t_ref = t_ref
        self._signs: Dict[int, int] = {}

    def _sign_of(self, v: float) -> int:
        return 1 if v > 0 else -1

    def insert(self, obj: MobileObject1D) -> None:
        self.model.validate(obj.motion)
        sign = self._sign_of(obj.motion.v)
        point = hough_x(obj.motion, self.t_ref)
        self._store(sign, point, obj.oid)
        self._signs[obj.oid] = sign

    def delete(self, oid: int) -> None:
        sign = self._signs.pop(oid, None)
        if sign is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        self._discard(sign, oid)

    def query(self, query: MORQuery1D) -> Set[int]:
        result: Set[int] = set()
        for sign in (1, -1):
            wedge = mor_wedge(query, self.model, sign, self.t_ref)
            result.update(self._search(sign, wedge))
        return result

    def __len__(self) -> int:
        return len(self._signs)

    def __contains__(self, oid: int) -> bool:
        return oid in self._signs

    # Subclass hooks -----------------------------------------------------------

    def _store(self, sign: int, point: Tuple[float, float], oid: int) -> None:
        raise NotImplementedError

    def _discard(self, sign: int, oid: int) -> None:
        raise NotImplementedError

    def _search(self, sign: int, wedge) -> Set[int]:
        raise NotImplementedError


@register_index
class DualKDTreeIndex(_DualPointIndex):
    """Hough-X points in an external kd-tree (the paper's §3.5.1 pick)."""

    name = "dual-kdtree"

    def __init__(
        self,
        model: MotionModel,
        t_ref: float = 0.0,
        leaf_capacity: int | None = None,
    ) -> None:
        super().__init__(model, t_ref)
        self._disk = {1: DiskSimulator(), -1: DiskSimulator()}
        capacity = leaf_capacity or KD_POINT.capacity(
            self._disk[1].page_size
        )
        self._trees = {
            sign: KDTree(self._disk[sign], dims=2, leaf_capacity=capacity)
            for sign in (1, -1)
        }

    def _store(self, sign: int, point: Tuple[float, float], oid: int) -> None:
        self._trees[sign].insert(point, oid)

    def _discard(self, sign: int, oid: int) -> None:
        self._trees[sign].delete(oid)

    def _search(self, sign: int, wedge) -> Set[int]:
        hits = self._trees[sign].search(WedgeRegion(wedge))
        return {oid for _, oid in hits}

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk[1], self._disk[-1])


@register_index
class DualRTreeIndex(_DualPointIndex):
    """Hough-X points in an R*-tree (shown weaker on the skewed dual)."""

    name = "dual-rstar"

    def __init__(
        self,
        model: MotionModel,
        t_ref: float = 0.0,
        page_capacity: int | None = None,
    ) -> None:
        super().__init__(model, t_ref)
        self._disk = {1: DiskSimulator(), -1: DiskSimulator()}
        capacity = page_capacity or RSTAR_RECT.capacity(self._disk[1].page_size)
        self._trees = {
            sign: RStarTree(self._disk[sign], capacity, capacity)
            for sign in (1, -1)
        }

    def _store(self, sign: int, point: Tuple[float, float], oid: int) -> None:
        self._trees[sign].insert(Rect.point(*point), oid)

    def _discard(self, sign: int, oid: int) -> None:
        self._trees[sign].delete(oid)

    def _search(self, sign: int, wedge) -> Set[int]:
        hits = self._trees[sign].search_region(wedge)
        return {
            oid for rect, oid in hits if wedge.contains(rect.lo_x, rect.lo_y)
        }

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk[1], self._disk[-1])
