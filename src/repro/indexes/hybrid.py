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

from itertools import compress
from typing import Callable, Dict, Sequence, Set

import numpy as np

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
from repro.vector.columns import MotionRows


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

    def __contains__(self, oid: int) -> bool:
        return oid in self._motions

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return (self._disk,)


#: Factory for the fast-band component of a hybrid index.
FastFactory = Callable[[MotionModel], MobileIndex1D]


class HybridIndex(MobileIndex1D):
    """Route objects by speed band: §3's moving/slow population split.

    Which store holds an object is a function of its motion — the slow
    store takes what the model does not call moving — so the hybrid
    keeps no per-object state: the slow store's own map answers
    :meth:`store_of`, and a band change is a delete from one store and
    an insert into the other.
    """

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

    def store_of(self, oid: int) -> MobileIndex1D:
        """The store holding ``oid`` (the fast one for an unknown oid,
        whose own delete then refuses it)."""
        return self._slow if oid in self._slow else self._fast

    def _store_for(self, motion: LinearMotion1D) -> MobileIndex1D:
        return self._fast if self.model.is_moving(motion) else self._slow

    def __contains__(self, oid: int) -> bool:
        return oid in self._slow or oid in self._fast

    def share_motions(self, table) -> None:
        """The fast store reads the owner's table; the slow store keeps
        its own map (empty unless objects park)."""
        self._fast.share_motions(table)

    def insert(self, obj: MobileObject1D) -> None:
        if obj.oid in self:
            raise DuplicateObjectError(f"object {obj.oid} already indexed")
        self.model.check_admissible(obj.motion, obj.oid)
        self._store_for(obj.motion).insert(obj)

    def delete(self, oid: int) -> None:
        self.store_of(oid).delete(oid)

    def update(self, obj: MobileObject1D) -> None:
        """Replace the motion in place, or move the object to the other
        store when its band changes; refused before anything moves."""
        self.model.check_admissible(obj.motion, obj.oid)
        source = self.store_of(obj.oid)
        target = self._store_for(obj.motion)
        if source is target:
            source.update(obj)
        else:
            source.delete(obj.oid)
            target.insert(obj)

    def query(self, query: MORQuery1D) -> Set[int]:
        """Union over the stores that hold anything: an empty store
        (its count knows, no I/O needed) is not descended into."""
        result: Set[int] = set()
        for store in (self._fast, self._slow):
            if len(store):
                result |= store.query(query)
        return result

    # -- batched writes --------------------------------------------------------

    def apply_group(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Validate the whole group, then at most one group per store.

        ``arriving`` is rows (:class:`~repro.vector.columns.MotionRows`,
        or objects converted once): one admission mask, and one moving
        mask splits it between the stores.  A departing oid leaves the
        store holding it, so a report that crosses ``v_min`` leaves one
        store and arrives at the other.  Each store refuses a new oid
        it already holds, so only the other store is asked here.
        """
        rows = MotionRows.of(arriving)
        admitted = self.model.admit_mask(rows.oid, rows.y0, rows.v, rows.t0)
        if not admitted.all():
            refused = arriving[int(np.argmin(admitted))]
            self.model.raise_refusal(refused.motion, refused.oid)
        moving = self.model.moving_mask(rows.v)
        fast, slow = rows.take(moving), rows.take(~moving)
        gone = set(leaving)
        for part, other in ((fast, self._slow), (slow, self._fast)):
            if len(part) and len(other):
                for oid in part.keys:
                    if oid not in gone and oid in other:
                        raise DuplicateObjectError(
                            f"object {oid} already indexed"
                        )
        if len(self._slow):
            parked = [oid in self._slow for oid in leaving]
            fast_out = [oid for oid, p in zip(leaving, parked) if not p]
            slow_out = list(compress(leaving, parked))
        else:
            fast_out, slow_out = leaving, ()
        for store, out, part in (
            (self._fast, fast_out, fast), (self._slow, slow_out, slow)
        ):
            if len(out) or len(part):
                store.apply_group(out, part)

    def insert_batch(self, objs: Sequence[MobileObject1D]) -> None:
        self.apply_group((), objs)

    def update_batch(self, objs: Sequence[MobileObject1D]) -> None:
        rows = MotionRows.of(objs)
        self.apply_group(rows.keys, rows)

    def delete_batch(self, oids: Sequence[int]) -> None:
        self.apply_group(oids, ())

    def __len__(self) -> int:
        return len(self._fast) + len(self._slow)

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return tuple(self._fast.disks) + tuple(self._slow.disks)
