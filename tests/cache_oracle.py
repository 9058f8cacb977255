"""The result cache's invalidation one write at a time: the reference
:func:`repro.vector.cache.doomed` and the cache's generation replay are
held to.

:func:`affected` is the scalar test the cache once ran for every
(entry, write) pair, and :class:`EventCache` the bookkeeping it ran it
in: a write log of single events (``maxlen`` the window), one
generation tick an event, and a put validated by replaying the events
it missed.  ``tests/test_cache_invalidation.py`` drives this model and
:class:`~repro.vector.cache.QueryResultCache` with the same steps and
asserts the same entries survive and the same puts are refused.
"""

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.core.predicates import matches_1d, matches_mor1
from repro.core.queries import MOR1Query, MORQuery1D
from repro.vector.columns import WriteColumns
from repro.vector.ops import (
    WRITE_KINDS,
    DeregisterOp,
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
)

Event = Tuple[str, int, Optional[LinearMotion1D]]


def affected(
    op: QueryOp,
    value: object,
    kind: str,
    oid: int,
    motion: Optional[LinearMotion1D],
) -> bool:
    """Can the write ``(kind, oid, motion)`` change this cached answer?

    Sound over-approximation: answers ``True`` whenever the write
    *could* matter, and ``False`` only with a proof it cannot —
    membership in the cached result covers every effect of the
    object's superseded motion (if the old motion contributed, the
    object is in the answer), and the predicates below cover the new
    motion.
    """
    if isinstance(op, (Within, SnapshotAt)):
        result: Set[int] = value  # type: ignore[assignment]
        if oid in result:
            return True
        if motion is None:
            return False  # deleted and never contributed
        if isinstance(op, Within):
            return matches_1d(
                motion, MORQuery1D(op.y1, op.y2, op.t1, op.t2)
            )
        return matches_mor1(motion, MOR1Query(op.y1, op.y2, op.t))
    if isinstance(op, Nearest):
        ranked: List[Tuple[int, float]] = value  # type: ignore[assignment]
        if any(member == oid for member, _ in ranked):
            return True
        if motion is None:
            # A short answer lists the whole population, so a deleted
            # object not in it never existed here; a full answer's
            # non-members rank strictly below the k-th and removing
            # one cannot promote anyone.
            return False
        if len(ranked) < op.k:
            return True  # population was short of k: newcomer enters
        distance = abs(motion.position(op.t) - op.y)
        return distance <= ranked[-1][1]  # could displace the k-th
    if isinstance(op, ProximityPairs):
        pairs: Set[Tuple[int, int]] = value  # type: ignore[assignment]
        if motion is not None:
            return True  # a moved/new object can create pairs anywhere
        return any(oid in pair for pair in pairs)
    return True  # unknown op shape: be safe


def events(writes: WriteColumns) -> Iterator[Event]:
    """A write set as the per-op events ``(kind, oid, motion)`` the
    listeners once received, motions from the float64 rows."""
    for op, y0, v, t0 in zip(
        writes.ops, writes.y0.tolist(), writes.v.tolist(), writes.t0.tolist()
    ):
        motion = None if type(op) is DeregisterOp else LinearMotion1D(y0, v, t0)
        yield WRITE_KINDS[type(op)], op.oid, motion


class EventCache:
    """The cache's resident entries and put validation, event by event
    (no capacity: the driving tests stay below any)."""

    def __init__(self, window: int) -> None:
        self.entries: Dict[QueryOp, object] = {}
        self.generation = 0
        self.floor = 0
        self.log: deque = deque(maxlen=window)
        self.stale_puts = 0

    def bump_generation(self) -> None:
        self.generation += 1
        self.floor = self.generation

    def on_update_batch(self, writes: WriteColumns) -> None:
        for kind, oid, motion in events(writes):
            self.generation += 1
            self.log.append((self.generation, kind, oid, motion))
            self.entries = {
                op: value
                for op, value in self.entries.items()
                if not affected(op, value, kind, oid, motion)
            }

    def _fresh(self, op: QueryOp, value: object, generation: int) -> bool:
        if generation == self.generation:
            return True
        if generation < self.floor:
            return False
        missed = self.generation - generation
        if missed > len(self.log):
            return False
        return not any(
            affected(op, value, kind, oid, motion)
            for _, kind, oid, motion in list(self.log)[-missed:]
        )

    def put(self, op: QueryOp, value: object, generation: int) -> None:
        if self._fresh(op, value, generation):
            self.entries[op] = value
        else:
            self.stale_puts += 1
