"""A leaf's records as parallel typed columns instead of a list of tuples.

A B+-tree leaf is a sorted list of ``(key, value)`` records.  Held as
Python objects a record of the observation index — ``((band, b, oid),
speed)`` — is two tuples and two boxed floats, 144 bytes where the page
layout counts 12.  :class:`PackedRecords` keeps records of that shape,
``((k0, k1, k2), value)``, as one :class:`array.array` per field and
still slices, inserts, pops, extends, iterates and compares like the
list it replaces, so :mod:`repro.bptree.tree` splits, borrows from and
merges it with the code it already had.  A tree class names its leaf
container through :attr:`~repro.bptree.tree.BPlusTree.leaf_items`; the
subclass that owns a record layout sets :attr:`PackedRecords.TYPECODES`.

A record read back (``records[i]``, iteration) is rebuilt as the plain
``(key tuple, value)`` it went in as.  The columns themselves are the
block interface: ``records.columns`` are the live arrays, in field
order, and a whole block is built from, ordered by and checked on them
(:meth:`PackedRecords.from_columns`, ``argsort`` / ``take``,
``strictly_increasing``) — what a bulk build sorts and packs without a
tuple per record (DESIGN.md §5.8).  Those calls copy: a container owns
its arrays, and no numpy view of them outlives the call that made it.

The key has three fields because the per-record operations (``find``,
``insert``, ``pop``, ``records[i]``) name the four columns instead of
looping over them: every scalar write pays for them, and spelled out
they cost half what the loop does.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Sequence, Tuple

import numpy as np

Record = Tuple[Tuple[Any, Any, Any], Any]


class PackedRecords:
    """Sorted ``((k0, k1, k2), value)`` records, one typed array a field."""

    __slots__ = ("columns",)

    #: :mod:`array` typecodes of the three key fields, then of the value.
    TYPECODES: Tuple[str, str, str, str]

    def __init__(self, records: Iterable[Record] = ()) -> None:
        self.columns = tuple(array(code) for code in self.TYPECODES)
        self.extend(records)

    @classmethod
    def from_columns(cls, *fields: np.ndarray) -> "PackedRecords":
        """The records whose fields are the given arrays, copied once each."""
        records = cls.__new__(cls)
        records.columns = tuple(array(code) for code in cls.TYPECODES)
        for col, field in zip(records.columns, fields):
            col.frombytes(np.ascontiguousarray(field, col.typecode).view("B"))
        return records

    def _views(self) -> Tuple[np.ndarray, ...]:
        # Views of the live columns: a column cannot be resized while
        # one exists, so they never leave the method that asked.
        return tuple(
            np.frombuffer(col, dtype=col.typecode) for col in self.columns
        )

    def argsort(self) -> np.ndarray:
        """The stable key order: a quicksort on ``k1``, then radix on ``k0``
        — or ``np.lexsort`` if two ``k1`` compare equal (as ``±0.0`` do) or
        one is NaN."""
        k0, k1, k2, _ = self._views()
        order = np.argsort(k1)
        rising = k1[order]
        if not (rising[1:] > rising[:-1]).all():
            return np.lexsort((k2, k1, k0))
        return order[np.argsort(k0[order], kind="stable")]

    def take(self, order: Sequence[int]) -> "PackedRecords":
        """The records at ``order``'s positions, in its order."""
        return self.from_columns(*(view[order] for view in self._views()))

    def strictly_increasing(self) -> bool:
        """Whether every key is below the next, compared as tuples."""
        k0, k1, k2, _ = self._views()
        below = k2[:-1] < k2[1:]
        for field in (k1, k0):
            below = (field[:-1] < field[1:]) | (
                (field[:-1] == field[1:]) & below
            )
        return bool(below.all())

    def __len__(self) -> int:
        return len(self.columns[3])

    def __iter__(self) -> Iterator[Record]:
        return zip(zip(*self.columns[:3]), self.columns[3])

    def __getitem__(self, index):
        c0, c1, c2, values = self.columns
        if isinstance(index, slice):
            part = type(self).__new__(type(self))
            part.columns = (c0[index], c1[index], c2[index], values[index])
            return part
        return ((c0[index], c1[index], c2[index]), values[index])

    def __delitem__(self, index) -> None:
        for col in self.columns:
            del col[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedRecords):
            return self.columns == other.columns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def insert(self, index: int, record: Record) -> None:
        (k0, k1, k2), value = record
        c0, c1, c2, values = self.columns
        c0.insert(index, k0)
        c1.insert(index, k1)
        c2.insert(index, k2)
        values.insert(index, value)

    def append(self, record: Record) -> None:
        self.insert(len(self), record)

    def pop(self, index: int = -1) -> Record:
        c0, c1, c2, values = self.columns
        return ((c0.pop(index), c1.pop(index), c2.pop(index)),
                values.pop(index))

    def extend(self, records: Iterable[Record]) -> None:
        if isinstance(records, PackedRecords):
            fields = records.columns
        else:
            unzipped = tuple(zip(*records))  # (keys, values); () if empty
            fields = (*zip(*unzipped[0]), unzipped[1]) if unzipped else ()
        for col, more in zip(self.columns, fields):
            col.extend(more)

    def find(self, key: Tuple[Any, Any, Any]) -> Tuple[int, bool]:
        """Slot of ``key`` (or where it belongs), and whether it is there:
        ``bisect_left(records, key, key=itemgetter(0))`` without building
        a record per probe.  Field by field, the slots still matching
        the key's prefix narrow to ``[lo, hi)``; an empty one is where
        the key belongs.  A probe field may be ``±inf`` against an
        integer column."""
        c0, c1, c2, _ = self.columns
        k0, k1, k2 = key
        lo = bisect_left(c0, k0)
        hi = bisect_right(c0, k0, lo)
        if lo < hi:
            lo, hi = bisect_left(c1, k1, lo, hi), bisect_right(c1, k1, lo, hi)
            if lo < hi:
                lo = bisect_left(c2, k2, lo, hi)
                return lo, lo < hi and c2[lo] == k2
        return lo, False
