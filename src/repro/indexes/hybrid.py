"""Handling the slow population, and the hybrid moving/slow split (§3).

Section 3 partitions the objects "into two categories, the objects with
low speed v ≈ 0 and the objects with speed between a minimum v_min and
maximum speed v_max", and treats only the fast band with the dual
methods, deferring slow objects to the restricted machinery of §3.6.

:class:`SlowObjectIndex` engineers that deferral concretely: a slow
object's position drifts at most ``v_slow * Δt``, so a B+-tree over
positions at a reference time answers the MOR query by *expanding* the
location range by the maximal drift and filtering candidates exactly —
a bounded, usually tiny enlargement, in the same spirit as §3.5.2's
bounded-``E`` rectangle.  The reference time is re-anchored (full
rebuild) whenever the accumulated drift bound exceeds one expansion
quantum, which keeps the enlargement bounded forever at amortised
``O(log_B n)`` per rebuild-step per object.

:class:`HybridIndex` composes any fast-band method with the slow store,
giving a single index accepting the whole speed range ``[0, v_max]``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Set

from repro.bptree.tree import BPlusTree
from repro.core.model import LinearMotion1D, MobileObject1D, MotionModel
from repro.core.predicates import matches_1d
from repro.core.queries import MORQuery1D
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.indexes.base import MobileIndex1D
from repro.io_sim.layout import BPTREE_ENTRY
from repro.io_sim.pager import DiskSimulator


class SlowObjectIndex(MobileIndex1D):
    """B+-tree over near-stationary objects with bounded range expansion.

    Accepts motions with ``|v| <= v_slow`` (defaulting to the model's
    ``v_min``: exactly the band the fast methods exclude).
    """

    name = "slow-objects"

    def __init__(
        self,
        model: MotionModel,
        v_slow: float | None = None,
        t_ref: float = 0.0,
        leaf_capacity: int | None = None,
        rebuild_drift: float | None = None,
    ) -> None:
        super().__init__(model)
        self.v_slow = v_slow if v_slow is not None else model.v_min
        self.t_ref = t_ref
        self._disk = DiskSimulator()
        capacity = leaf_capacity or BPTREE_ENTRY.capacity(self._disk.page_size)
        self._capacity = capacity
        self._tree = BPlusTree(self._disk, capacity)
        self._motions: Dict[int, LinearMotion1D] = {}
        #: Re-anchor once drift could exceed this many terrain units.
        self.rebuild_drift = (
            rebuild_drift
            if rebuild_drift is not None
            else model.terrain.y_max / 20.0
        )

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self._motions:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        if abs(obj.motion.v) > self.v_slow:
            raise InvalidMotionError(
                f"speed {obj.motion.v} exceeds the slow band "
                f"|v| <= {self.v_slow}"
            )
        key = (obj.motion.position(self.t_ref), obj.oid)
        self._tree.insert(key, obj.motion)
        self._motions[obj.oid] = obj.motion

    def delete(self, oid: int) -> None:
        motion = self._motions.pop(oid, None)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        self._tree.delete((motion.position(self.t_ref), oid))

    def query(self, query: MORQuery1D) -> Set[int]:
        """Range scan with drift expansion plus an exact filter."""
        self._maybe_reanchor(query.t2)
        drift = self.v_slow * max(
            abs(query.t1 - self.t_ref), abs(query.t2 - self.t_ref)
        )
        lo = (query.y1 - drift, float("-inf"))
        hi = (query.y2 + drift, float("inf"))
        return {
            oid
            for (_, oid), motion in self._tree.range_items(lo, hi)
            if matches_1d(motion, query)
        }

    #: Leaf fill factor for re-anchor rebuilds: STR-style packing with
    #: headroom so post-rebuild inserts do not split immediately.
    REBUILD_FILL = 0.8

    def _maybe_reanchor(self, t: float) -> None:
        """Rebuild keys at a fresh reference time once drift grows.

        The rebuild is a sort + bottom-up bulk load
        (:meth:`~repro.bptree.tree.BPlusTree.bulk_load`) instead of n
        root-to-leaf inserts; ``(position, oid)`` keys are unique, so
        the sorted entry run satisfies the loader's strictly-increasing
        key contract.
        """
        if self.v_slow * abs(t - self.t_ref) <= self.rebuild_drift:
            return
        self.t_ref = t
        entries = sorted(
            ((motion.position(t), oid), motion)
            for oid, motion in self._motions.items()
        )
        stats = self._disk.stats
        self._disk = DiskSimulator()
        self._disk.stats = stats  # the rebuild counts on; totals only grow
        self._tree = BPlusTree.bulk_load(
            self._disk, entries, self._capacity, fill=self.REBUILD_FILL
        )

    def __len__(self) -> int:
        return len(self._motions)

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk,)


#: Factory for the fast-band component of a hybrid index.
FastFactory = Callable[[MotionModel], MobileIndex1D]


class HybridIndex(MobileIndex1D):
    """Route objects by speed band: §3's moving/slow population split."""

    name = "hybrid"

    def __init__(
        self,
        model: MotionModel,
        fast_factory: FastFactory,
        slow_index: SlowObjectIndex | None = None,
    ) -> None:
        super().__init__(model)
        self._fast = fast_factory(model)
        self._slow = slow_index or SlowObjectIndex(model)
        self._band: Dict[int, str] = {}

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self._band:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.check_admissible(obj.motion, obj.oid)
        if self.model.is_moving(obj.motion):
            self._fast.insert(obj)
            self._band[obj.oid] = "fast"
        else:
            self._slow.insert(obj)
            self._band[obj.oid] = "slow"

    def delete(self, oid: int) -> None:
        band = self._band.pop(oid, None)
        if band is None:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        if band == "fast":
            self._fast.delete(oid)
        else:
            self._slow.delete(oid)

    def query(self, query: MORQuery1D) -> Set[int]:
        """Union over the stores that hold anything: an empty store
        (the catalog knows, no I/O needed) is not descended into."""
        result: Set[int] = set()
        for store in (self._fast, self._slow):
            if len(store):
                result |= store.query(query)
        return result

    # -- batched writes --------------------------------------------------------

    def insert_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Validate the whole batch, then one grouped insert per band."""
        fast: list = []
        slow: list = []
        for obj in objs:
            if obj.oid in self._band:
                raise DuplicateObjectError(
                    f"object {obj.oid} already indexed"
                )
            self.model.check_admissible(obj.motion, obj.oid)
            (fast if self.model.is_moving(obj.motion) else slow).append(obj)
        if fast:
            self._fast.insert_batch(fast)
            for obj in fast:
                self._band[obj.oid] = "fast"
        if slow:
            self._slow.insert_batch(slow)
            for obj in slow:
                self._band[obj.oid] = "slow"

    def update_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Group the fast-band bulk of a batch into one grouped update.

        Objects staying in the fast band (the overwhelming case for the
        paper's update storms) forward as one
        :meth:`~repro.indexes.base.MobileIndex1D.update_batch` to the
        fast method, which may rebuild in bulk; band transitions and
        slow-band updates take the scalar route-and-reinsert path.
        Callers guarantee oid-uniqueness within the batch, so the two
        groups commute.
        """
        stay_fast: list = []
        rest: list = []
        for obj in objs:
            if (
                self._band.get(obj.oid) == "fast"
                and abs(obj.motion.v) <= self.model.v_max
                and self.model.is_moving(obj.motion)
            ):
                stay_fast.append(obj)
            else:
                rest.append(obj)
        if stay_fast:
            self._fast.update_batch(stay_fast)
        for obj in rest:
            self.update(obj)

    def delete_batch(self, oids: Sequence[int]) -> None:
        """One grouped delete per band."""
        fast: list = []
        slow: list = []
        for oid in oids:
            band = self._band.pop(oid, None)
            if band is None:
                raise ObjectNotFoundError(f"object {oid} is not indexed")
            (fast if band == "fast" else slow).append(oid)
        if fast:
            self._fast.delete_batch(fast)
        if slow:
            self._slow.delete_batch(slow)

    def __len__(self) -> int:
        return len(self._band)

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return tuple(self._fast.disks) + tuple(self._slow.disks)
