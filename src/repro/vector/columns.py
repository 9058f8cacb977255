"""The object table: a shard's population, one row per object.

A :class:`~repro.engine.MotionDatabase` — one shard — keeps each of its
objects exactly once, as a row ``(oid, y0, v, t0)`` of four contiguous
``numpy`` arrays.  Whatever asks for an object's motion reads its row:
the shard's membership, ``len``, ``motion_of`` and snapshots, and the
served Hough-Y forest when it deletes or rebuilds (where a motion sits
in the forest's trees is a function of it).  A
:class:`~repro.core.model.LinearMotion1D` is built only where a caller
asks for one.  The same arrays are what the kernels in
:mod:`repro.vector.kernels` scan, so a batch query reads the whole
population in a handful of vectorised passes.

The shard writes a row *after* the index call that changed the object
(:meth:`MotionColumns.apply_events` takes one group of writes at a
time), so while an index call runs the row still holds the motion the
index holds.  Rows are ``float64``: a motion read back is the float the
kernels see, so an ``int`` or ``numpy.float64`` field comes back as the
equal ``float``.  Deletes swap the last row into the hole so the arrays
stay dense (kernels never see tombstones); row order is therefore
arbitrary, which is fine because every batch result is a set or an
explicitly re-ranked list.

``version`` increments on every mutation; the shared-memory twin
(:mod:`repro.vector.shm`) publishes it with every snapshot.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import LinearMotion1D, MobileObject1D

#: Initial array capacity (doubles on overflow).
_MIN_CAPACITY = 16

_MOTION_FIELDS = tuple(
    attrgetter(f"motion.{field}") for field in ("y0", "v", "t0")
)


def _motion_columns(
    objs: Sequence[MobileObject1D],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(y0, v, t0)`` of the objects' motions as float64 arrays."""
    return tuple(
        np.fromiter(map(field, objs), np.float64, len(objs))
        for field in _MOTION_FIELDS
    )


class MotionColumns:
    """Dense columnar ``(oid, y0, v, t0)`` rows, one per object."""

    __slots__ = ("_oid", "_y0", "_v", "_t0", "_n", "_slots", "version")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._oid = np.empty(capacity, dtype=np.int64)
        self._y0 = np.empty(capacity, dtype=np.float64)
        self._v = np.empty(capacity, dtype=np.float64)
        self._t0 = np.empty(capacity, dtype=np.float64)
        self._n = 0
        self._slots: Dict[int, int] = {}
        self.version = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_motions(
        cls, motions: Dict[int, LinearMotion1D]
    ) -> "MotionColumns":
        """Bulk-build from an oid → motion map."""
        columns = cls(capacity=len(motions) or _MIN_CAPACITY)
        for oid, motion in motions.items():
            columns.upsert(oid, motion)
        return columns

    # -- reads ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        """Allocated rows (live rows are ``len(self)``)."""
        return self._oid.shape[0]

    def __contains__(self, oid: int) -> bool:
        return oid in self._slots

    def get(self, oid: int) -> Optional[LinearMotion1D]:
        """The stored motion of one object, or ``None``."""
        slot = self._slots.get(oid)
        if slot is None:
            return None
        return LinearMotion1D(
            self._y0.item(slot), self._v.item(slot), self._t0.item(slot)
        )

    def motion_of(self, oid: int) -> LinearMotion1D:
        """The stored motion of one object (KeyError when absent)."""
        motion = self.get(oid)
        if motion is None:
            raise KeyError(oid)
        return motion

    def ordered(self) -> Tuple[np.ndarray, ...]:
        """Copies of ``(oid, y0, v, t0)`` with the rows in oid order —
        whatever order the writes came in, however deletes moved them."""
        columns = self.arrays()
        order = np.argsort(columns[0])
        return tuple(column[order] for column in columns)

    def items(self) -> Iterator[Tuple[int, LinearMotion1D]]:
        """Iterate ``(oid, motion)`` in oid order."""
        oid, y0, v, t0 = (column.tolist() for column in self.ordered())
        for row in zip(oid, y0, v, t0):
            yield row[0], LinearMotion1D(*row[1:])

    def arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views ``(oid, y0, v, t0)`` over the live rows.

        The views alias the store's buffers: treat them as read-only
        and do not hold them across a mutation.
        """
        n = self._n
        return (self._oid[:n], self._y0[:n], self._v[:n], self._t0[:n])

    # -- mutation -------------------------------------------------------------

    def _next_capacity(self, needed: int) -> int:
        """Capacity-doubling growth policy, rebased on live size.

        The new capacity is ``2 * needed`` — twice the row count the
        caller actually requires — never a multiple of the *old
        allocation*.  Doubling from the requirement keeps appends
        amortized O(1) (``needed`` is always past the old capacity
        when this is consulted, so the allocation at least doubles)
        while a store that churned through a population spike re-grows
        proportionally to its current population, not its historical
        peak.
        """
        return max(_MIN_CAPACITY, 2 * needed)

    def _grow(self, needed: int) -> None:
        """Reallocate the buffers so at least ``needed`` rows fit."""
        capacity = self._next_capacity(needed)
        for name in ("_oid", "_y0", "_v", "_t0"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._n] = old[: self._n]
            setattr(self, name, fresh)

    def _reserve(self, extra: int) -> None:
        """Grow the buffers (one doubling allocation) so ``extra``
        additional rows fit."""
        needed = self._n + extra
        if needed > self._oid.shape[0]:
            self._grow(needed)

    def upsert(self, oid: int, motion: LinearMotion1D) -> None:
        """Insert a new row or overwrite the existing one for ``oid``."""
        slot = self._slots.get(oid)
        if slot is None:
            self._reserve(1)
            slot = self._n
            self._n += 1
            self._slots[oid] = slot
            self._oid[slot] = oid
        self._y0[slot] = motion.y0
        self._v[slot] = motion.v
        self._t0[slot] = motion.t0
        self.version += 1

    def delete(self, oid: int) -> None:
        """Drop a row, keeping the arrays dense (swap-with-last)."""
        slot = self._slots.pop(oid, None)
        if slot is None:
            return
        last = self._n - 1
        if slot != last:
            moved = int(self._oid[last])
            self._oid[slot] = self._oid[last]
            self._y0[slot] = self._y0[last]
            self._v[slot] = self._v[last]
            self._t0[slot] = self._t0[last]
            self._slots[moved] = slot
        self._n = last
        self.version += 1

    def clear(self) -> None:
        self._slots.clear()
        self._n = 0
        self.version += 1

    def apply_events(
        self, gone: Sequence[int], written: Sequence[MobileObject1D]
    ) -> None:
        """Apply one group of writes in a few array passes.

        ``gone`` are the oids whose rows are dropped (an absent one is
        skipped, as :meth:`delete` skips it), ``written`` the objects
        whose rows are set — overwritten in place when the oid has a
        row, appended otherwise.  No oid appears twice across the two
        (the group is one epoch of
        :meth:`~repro.engine.MotionDatabase.apply_batch`).  The dropped
        rows are filled from the live tail in one compaction, the
        overwrites are one scatter and the appends one slice; the result
        equals :meth:`delete` and :meth:`upsert` once per write up to
        row order, and ``version`` advances once.
        """
        if not gone and not written:
            return
        doomed = [self._slots.pop(oid) for oid in gone if oid in self._slots]
        if doomed:
            doomed = np.asarray(doomed, dtype=np.int64)
            n = self._n - len(doomed)
            holes = doomed[doomed < n]
            tail = np.arange(n, self._n, dtype=np.int64)
            # As many live rows past the new end as holes before it.
            survivors = tail[~np.isin(tail, doomed)]
            for column in (self._oid, self._y0, self._v, self._t0):
                column[holes] = column[survivors]
            self._n = n
            for oid, slot in zip(self._oid[holes].tolist(), holes.tolist()):
                self._slots[oid] = slot
        patched, fresh = [], []
        for obj in written:
            (patched if obj.oid in self._slots else fresh).append(obj)
        if patched:
            slots = np.fromiter(
                (self._slots[obj.oid] for obj in patched), np.int64,
                len(patched),
            )
            self._y0[slots], self._v[slots], self._t0[slots] = (
                _motion_columns(patched)
            )
        if fresh:
            self._reserve(len(fresh))
            rows = slice(self._n, self._n + len(fresh))
            self._oid[rows] = np.fromiter(
                (obj.oid for obj in fresh), np.int64, len(fresh)
            )
            self._y0[rows], self._v[rows], self._t0[rows] = (
                _motion_columns(fresh)
            )
            for slot, obj in enumerate(fresh, self._n):
                self._slots[obj.oid] = slot
            self._n += len(fresh)
        self.version += 1
