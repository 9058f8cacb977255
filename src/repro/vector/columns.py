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

A write batch travels in the same shape: :class:`WriteColumns` is the
batch's oids and fields converted once, and :class:`MotionRows` one
group of its rows as it goes down a shard — to the index and then to
:meth:`MotionColumns.apply_events`.
"""

from __future__ import annotations

import math
from collections import Counter, abc
from itertools import compress
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.model import LinearMotion1D, MobileObject1D, motion_columns
from repro.vector.ops import _DELETE, _KIND_CODES, WriteOp

#: Initial array capacity (doubles on overflow).
_MIN_CAPACITY = 16


class MotionRows(abc.Sequence):
    """Rows ``(oid, y0, v, t0)`` as four arrays (int64, then float64)
    that read as a sequence of :class:`~repro.core.model.MobileObject1D`.

    What a shard hands its index and its table for one group of
    writes: a hook that can read columns takes ``rows.oid`` and the
    field arrays (the forest's bulk build, the table's appends, the
    hybrid's band split), and one that needs objects iterates and gets
    each row as an object built on the spot, float64 fields — the way
    :class:`~repro.bptree.packed.PackedRecords` makes a leaf a list
    over columns.  ``keys`` are the oids as the caller's ops or objects
    carried them, so the table keys its rows by those ints instead of
    minting one per row.
    """

    __slots__ = ("keys", "oid", "y0", "v", "t0")

    def __init__(
        self,
        keys: Sequence[int],
        oid: np.ndarray,
        y0: np.ndarray,
        v: np.ndarray,
        t0: np.ndarray,
    ) -> None:
        self.keys, self.oid, self.y0, self.v, self.t0 = keys, oid, y0, v, t0

    @classmethod
    def of(cls, objects: Sequence[MobileObject1D]) -> "MotionRows":
        """``objects`` as rows: themselves if they already are, else
        their fields converted once (:func:`~repro.core.model.
        motion_columns`: a row that does not convert has NaN fields)."""
        if isinstance(objects, cls):
            return objects
        keys = [obj.oid for obj in objects]
        return cls(keys, *motion_columns(
            keys,
            *([getattr(obj.motion, field) for obj in objects]
              for field in ("y0", "v", "t0")),
        ))

    def take(self, index) -> "MotionRows":
        """The rows a mask, a slice or a position array selects."""
        keys = self.keys
        return MotionRows(
            [keys[i] for i in np.arange(len(keys))[index].tolist()],
            self.oid[index], self.y0[index], self.v[index], self.t0[index],
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[MobileObject1D]:
        return map(MobileObject1D, self.keys, map(
            LinearMotion1D,
            self.y0.tolist(), self.v.tolist(), self.t0.tolist(),
        ))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return MobileObject1D(self.keys[index], LinearMotion1D(
            self.y0.item(index), self.v.item(index), self.t0.item(index)
        ))


class WriteColumns(abc.Sequence):
    """A write batch as columns: the ops, the oids they name (``keys``,
    the ops' own ints), their kinds as an int8 ``kind`` column (the
    codes of :data:`~repro.vector.ops._KIND_CODES`) and the oid and
    motion fields as int64 / float64 arrays, converted once
    (:func:`~repro.core.model.motion_columns`; a deregister's fields
    are NaN, and ignored).

    It reads as the sequence of its ops, so whatever takes a batch of
    :mod:`repro.vector.ops` writes takes it, and a layer that has the
    columns already does not extract them again
    (:meth:`~repro.engine.MotionDatabase.apply_batch`).  Constructing
    one from anything but write ops raises ``TypeError``.
    """

    __slots__ = ("ops", "keys", "kind", "oid", "y0", "v", "t0")

    def __init__(self, ops: Sequence[WriteOp]) -> None:
        try:
            self.kind = np.fromiter(
                map(_KIND_CODES.__getitem__, map(type, ops)), np.int8,
                len(ops),
            )
        except KeyError:
            for op in ops:
                if type(op) not in _KIND_CODES:
                    raise TypeError(f"unknown write operation {op!r}")
            raise
        if (self.kind == _DELETE).any():
            fields = (
                [getattr(op, field, math.nan) for op in ops]
                for field in ("y0", "v", "t0")
            )
        else:
            fields = (
                list(map(attrgetter(field), ops))
                for field in ("y0", "v", "t0")
            )
        self.ops = ops
        self.keys = [op.oid for op in ops]
        self.oid, self.y0, self.v, self.t0 = motion_columns(
            self.keys, *fields
        )

    @classmethod
    def of(cls, ops: Sequence[WriteOp]) -> "WriteColumns":
        """``ops`` as columns: themselves if they already are."""
        return ops if isinstance(ops, cls) else cls(ops)

    def take(
        self, rows: Sequence[int], ops: Optional[Sequence[WriteOp]] = None
    ) -> "WriteColumns":
        """The sub-batch of this batch's rows at positions ``rows``: its
        own ops there, or the planned sub-ops ``ops`` (a sub-op names its
        row's object and carries its motion, and its kind is its own)."""
        part = WriteColumns.__new__(WriteColumns)
        rows = np.asarray(rows, dtype=np.int64)
        if ops is None:
            at = rows.tolist()
            part.ops = list(map(self.ops.__getitem__, at))
            part.keys = list(map(self.keys.__getitem__, at))
            part.kind = self.kind[rows]
        else:
            part.ops = ops
            part.keys = [op.oid for op in ops]
            part.kind = np.fromiter(
                map(_KIND_CODES.__getitem__, map(type, ops)), np.int8,
                len(ops),
            )
        part.oid, part.y0, part.v, part.t0 = (
            self.oid[rows], self.y0[rows], self.v[rows], self.t0[rows]
        )
        return part

    def repeated(self) -> Set[int]:
        """The oids the batch names more than once.  The oid column
        decides when every oid is an ``int`` (the column then holds it
        exactly, or a placeholder that can only add false repeats);
        otherwise the oids are counted as a dict would key them."""
        if len(self.keys) < 2:
            return set()
        if all(issubclass(kind, int) for kind in set(map(type, self.keys))):
            ordered = np.sort(self.oid)
            if not (ordered[1:] == ordered[:-1]).any():
                return set()
        counts = Counter(self.keys)
        return {oid for oid, n in counts.items() if n > 1}

    def rows(self, index: Sequence[int]) -> MotionRows:
        """The motions of the ops at increasing positions ``index``, as
        rows (views of the columns when that is every op)."""
        if len(index) == len(self.keys):
            return MotionRows(self.keys, self.oid, self.y0, self.v, self.t0)
        keys = [self.keys[i] for i in index]
        index = np.asarray(index, dtype=np.int64)
        return MotionRows(
            keys, self.oid[index], self.y0[index], self.v[index],
            self.t0[index],
        )

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[WriteOp]:
        return iter(self.ops)

    def __getitem__(self, index):
        return self.ops[index]


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

    def holds(self, oids: Sequence[int]) -> np.ndarray:
        """Which of ``oids`` have a row, as a boolean array."""
        return np.fromiter(
            map(self._slots.__contains__, oids), bool, len(oids)
        )

    def gather(
        self, oids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of ``(y0, v, t0)`` for the rows of ``oids``, in that
        order (KeyError for an oid with no row)."""
        slots = np.fromiter(
            map(self._slots.__getitem__, oids), np.int64, len(oids)
        )
        return self._y0[slots], self._v[slots], self._t0[slots]

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
        row, appended otherwise; :class:`MotionRows` are read as the
        arrays they are.  No oid appears twice across the two (the
        group is one epoch of
        :meth:`~repro.engine.MotionDatabase.apply_batch`).  The dropped
        rows are filled from the live tail in one compaction, the
        overwrites are one scatter and the appends one slice; the result
        equals :meth:`delete` and :meth:`upsert` once per write up to
        row order, and ``version`` advances once.
        """
        rows = MotionRows.of(written)
        if not len(gone) and not len(rows):
            return
        slots = self._slots
        doomed = [slots.pop(oid) for oid in gone if oid in slots]
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
            slots.update(zip(self._oid[holes].tolist(), holes.tolist()))
        oids = rows.keys
        if slots and oids:
            held = list(map(slots.__contains__, oids))
            if any(held):
                mask = np.array(held)
                at = np.fromiter(
                    map(slots.__getitem__, compress(oids, held)), np.int64
                )
                self._y0[at], self._v[at], self._t0[at] = (
                    rows.y0[mask], rows.v[mask], rows.t0[mask]
                )
                rows = rows.take(~mask)
                oids = rows.keys
        if oids:
            n, k = self._n, len(oids)
            self._reserve(k)
            fresh = slice(n, n + k)
            self._oid[fresh] = rows.oid
            self._y0[fresh] = rows.y0
            self._v[fresh] = rows.v
            self._t0[fresh] = rows.t0
            slots.update(zip(oids, range(n, n + k)))
            self._n = n + k
        self.version += 1
