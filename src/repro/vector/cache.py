"""Versioned memoization of batch query results.

A serving workload repeats queries: dashboards poll the same band,
dispatchers re-rank the same k-NN probe, retries re-ask what just
timed out.  :class:`QueryResultCache` memoizes the answers of the
batch query path keyed by the query op itself (the frozen dataclasses
of :mod:`repro.vector.ops` hash and compare by value), and keeps the
entries exactly consistent with the write stream by per-object
invalidation:

* the cache is an update listener: it observes every acknowledged
  write set, as the :class:`~repro.vector.columns.WriteColumns` it
  arrived in, through the same ``attach_update_listener`` hook the
  subscription layer uses, in per-object apply order;
* an entry is dropped only when a written object can actually change
  its answer — it is in the cached result, or its new motion satisfies
  the cached query (for k-NN: would rank at or above the current
  ``k``-th candidate).  Writes that provably cannot affect an entry
  leave it warm.

One routine, :func:`doomed`, decides that for a whole write set at
once: one call of each kernel the batch read uses
(:func:`~repro.vector.kernels.mor_mask` for ``Within`` and
``SnapshotAt`` entries, :func:`~repro.vector.kernels.knn_distances`
for ``Nearest``), broadcast over the resident entries × the written
rows, plus a set test of the written
oids against each result.  It is the same closed-form reasoning the
:class:`~repro.service.continuous.SubscriptionManager` applies to its
standing results, specialised to drop-on-touch instead of repair —
dropped entries are simply recomputed by the next batch.

Invalidation alone is not enough under concurrency: a result computed
*outside* the cache lock can be overtaken by a write that lands after
the shards were read but before :meth:`put` runs — the write finds
nothing to drop (the entry is not resident yet) and the stale answer
would then be inserted and served until the next touching write.  The
cache therefore carries a **generation counter**, advanced by one for
every written row: callers snapshot it (:meth:`generation`) before
computing and hand it back to :meth:`put`, which replays the write sets
logged in between against the candidate entry through :func:`doomed`
and drops it (``query_cache_stale_puts``) if any could have changed the
answer.  The write log covers the last ``WRITE_LOG_WINDOW`` rows; a
compute that out-lives the window is rejected conservatively.
:meth:`bump_generation` lets the service veto every in-flight put
without a per-object record — the fault-tolerant layer uses it when a
shard dies mid-batch.

Hit / miss / invalidation / eviction tallies go to named counters in
a :class:`~repro.service.metrics.MetricsRegistry`
(``query_cache_hits`` etc.), so ``service_stats()`` surfaces cache
effectiveness next to the per-operation table.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain, compress
from operator import attrgetter, itemgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.vector.columns import WriteColumns
from repro.vector.kernels import knn_distances, mor_mask
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
    WriteOp,
)

#: Default maximum resident entries (LRU beyond this).
DEFAULT_CAPACITY = 1024

#: Written rows remembered for validating in-flight puts.  A put whose
#: compute window saw more writes than this is dropped conservatively.
WRITE_LOG_WINDOW = 256


class QueryResultCache:
    """LRU result cache with exact per-object write invalidation."""

    def __init__(self, metrics=None, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if metrics is None:
            from repro.service.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.capacity = capacity
        self._lock = threading.Lock()
        # op -> value, oldest use first (a use re-inserts).  A plain
        # dict: walking an OrderedDict hashes every key, and an op's
        # hash is a Python call.
        self._entries: Dict[QueryOp, object] = {}
        # Monotone write clock, one tick a written row.  Each observed
        # write set of at most WRITE_LOG_WINDOW rows is logged with the
        # generation it ends at, so puts can replay what happened during
        # their compute window (a longer set outruns every window);
        # _floor marks events (clear, shard death) that veto every older
        # in-flight put.
        self._generation = 0
        self._floor = 0
        self._write_log: Deque[Tuple[int, WriteColumns]] = deque()
        self._hits = metrics.counter("query_cache_hits")
        self._misses = metrics.counter("query_cache_misses")
        self._invalidations = metrics.counter("query_cache_invalidations")
        self._evictions = metrics.counter("query_cache_evictions")
        self._stale_puts = metrics.counter("query_cache_stale_puts")

    # -- generations -----------------------------------------------------------

    def generation(self) -> int:
        """The current write generation, for handing to :meth:`put`.

        Snapshot this *before* reading the shards; every write the
        cache observes afterwards advances it, so :meth:`put` can tell
        whether the computed answer may already be stale.
        """
        with self._lock:
            return self._generation

    def bump_generation(self) -> None:
        """Veto every in-flight put without a per-object write record.

        For invalidation events the update stream cannot describe —
        e.g. a shard marked down mid-batch — after which any result
        computed before the event must not be memoized.
        """
        with self._lock:
            self._generation += 1
            self._floor = self._generation

    def _fresh(self, op: QueryOp, value: object, generation: int) -> bool:
        """Whether a value computed at ``generation`` is still current.

        Caller holds the lock.  Replays the write sets logged since the
        snapshot against the candidate entry; sound because ``True``
        needs proof (every intervening write provably irrelevant, the
        same :func:`doomed` test used for resident entries) and
        anything unprovable — log window overrun, a floor event —
        answers ``False``.  A write set is announced whole under the
        lock, so every logged set is wholly before or wholly after the
        snapshot.
        """
        if generation == self._generation:
            return True
        if generation < self._floor:
            return False
        if self._generation - generation > WRITE_LOG_WINDOW:
            return False
        for end, writes in reversed(self._write_log):
            if end <= generation:
                break
            if doomed([(op, value)], writes)[0]:
                return False
        return True

    # -- lookup / store --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, op: QueryOp) -> Tuple[bool, object]:
        """``(hit, value)`` for one query.

        Returned containers are fresh copies, so callers may mutate
        them without corrupting the cached original.
        """
        with self._lock:
            # An answer is a set or a list, never None.
            value = self._entries.pop(op, None)
            if value is None:
                self._misses.increment()
                return (False, None)
            self._entries[op] = value
            self._hits.increment()
            return (True, copy_result(value))

    def put(
        self, op: QueryOp, value: object, generation: Optional[int] = None
    ) -> None:
        """Memoize one computed answer (evicting LRU beyond capacity).

        ``generation`` is the :meth:`generation` snapshot taken before
        the value was computed.  When given, writes observed since are
        replayed against the candidate and a possibly-stale value is
        dropped instead of stored (``query_cache_stale_puts``) —
        without it a write racing the compute would invalidate nothing
        (the entry is not resident yet) and the stale answer would be
        served until the next touching write.  ``None`` skips the
        check, for callers who know no writer can race them.
        """
        with self._lock:
            if generation is not None and not self._fresh(
                op, value, generation
            ):
                self._stale_puts.increment()
                return
            entries = self._entries
            entries.pop(op, None)
            entries[op] = copy_result(value)
            while len(entries) > self.capacity:
                del entries[next(iter(entries))]
                self._evictions.increment()

    def clear(self) -> None:
        """Drop everything, resident and in flight (floors the clock)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations.increment(dropped)
            self._generation += 1
            self._floor = self._generation

    def stats(self) -> Dict[str, int]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "hits": self._hits.value,
            "misses": self._misses.value,
            "invalidations": self._invalidations.value,
            "evictions": self._evictions.value,
            "stale_puts": self._stale_puts.value,
        }

    # -- write invalidation ----------------------------------------------------

    def on_update_batch(self, writes: WriteColumns) -> None:
        """Update-listener hook: observe one acknowledged write set, drop
        exactly the affected entries, advance the generation by one per
        row and log the set.

        Runs inside the service write path (shard locks held), so it
        must be fast, must not raise, and never calls back into the
        service — it only touches its own table.
        """
        n = len(writes)
        if not n:
            return
        with self._lock:
            self._generation += n
            log = self._write_log
            if n <= WRITE_LOG_WINDOW:
                log.append((self._generation, writes))
            while log and log[0][0] <= self._generation - WRITE_LOG_WINDOW:
                log.popleft()
            entries = self._entries
            hits = doomed(entries.items(), writes)
            gone = [op for op, hit in zip(entries, hits) if hit]
            for op in gone:
                del entries[op]
            self._invalidations.increment(len(gone))

    def on_update(self, op: WriteOp) -> None:
        """One write: :meth:`on_update_batch` of a one-row set."""
        self.on_update_batch(WriteColumns([op]))


def copy_result(value: object) -> object:
    if isinstance(value, set):
        return set(value)
    if isinstance(value, frozenset):
        return frozenset(value)
    if isinstance(value, list):
        return list(value)
    return value


def _within(y0, v, t0, y1, y2, t1, t2) -> np.ndarray:
    return mor_mask(y0, v, t0, Within(y1, y2, t1, t2))


def _nearer(y0, v, t0, y, t, kth) -> np.ndarray:
    return knn_distances(y0, v, t0, y, t) <= kth


#: Query kind -> the kernel deciding whether a new motion can change a
#: cached answer, and the op fields it takes.  A snapshot is a
#: ``Within`` whose window is the instant ``t``: ``mor_mask`` then does
#: ``snapshot_mask``'s float64 operations, so both kinds share one
#: call.  A ``Nearest`` entry adds the distance of its ``k``-th answer.
_KERNELS: Dict[type, Tuple[Callable, Callable]] = {
    Within: (_within, attrgetter("y1", "y2", "t1", "t2")),
    SnapshotAt: (_within, attrgetter("y1", "y2", "t", "t")),
    Nearest: (_nearer, attrgetter("y", "t")),
}


def _reached(
    kernel: Callable,
    params: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
) -> np.ndarray:
    """Per entry (a column of ``params``, one parameter a row), whether
    ``kernel`` holds for some written row.  The rows go in blocks, so
    that a broadcast buffer holds at most 2**16 values (512 KiB: the
    write path runs beside a loaded shard and must not raise the
    process's high-water mark)."""
    entries = params[..., None]
    step = max(1, 2**16 // params.shape[1])
    hit = np.zeros(params.shape[1], dtype=bool)
    for start in range(0, len(y0), step):
        rows = slice(start, start + step)
        hit |= kernel(y0[rows], v[rows], t0[rows], *entries).any(axis=1)
    return hit


def doomed(
    entries: Iterable[Tuple[QueryOp, object]], writes: WriteColumns
) -> List[bool]:
    """Which cached ``(op, value)`` entries the write set can change.

    Sound over-approximation, entry by entry the same verdict as
    testing each written row alone and dropping on any ``True``:
    membership in the cached result covers every effect of an object's
    superseded motion (if the old motion contributed, the object is in
    the answer), and the kernels cover each new motion — a written row
    that is not a deregister — with the float64 arithmetic of the
    scalar predicates.  A short ``Nearest`` answer (fewer than ``k``)
    listed the whole population, so any new motion enters it and a
    deregistered non-member never existed; a ``ProximityPairs`` entry
    falls to any new motion and to the deregister of a paired object.
    An unknown op shape always falls.
    """
    entries = list(entries)
    hit = [False] * len(entries)
    if not entries or not len(writes):
        return hit
    gone = [type(op) is DeregisterOp for op in writes.ops]
    deleted = set(compress(writes.keys, gone))
    y0, v, t0 = writes.y0, writes.v, writes.t0
    if deleted:
        moved = ~np.array(gone)
        y0, v, t0 = y0[moved], v[moved], t0[moved]
    written = set(writes.keys)
    moving = len(y0) > 0
    # Per kernel: the entries left to it (no member written) and their
    # parameters.
    tested: Dict[Callable, Tuple[List[int], List[tuple]]] = {
        kernel: ([], []) for kernel, _ in _KERNELS.values()
    }
    for i, (op, value) in enumerate(entries):
        kind = type(op)
        if kind is Nearest:
            # k >= 1 (evaluation refuses less), so a full answer has a
            # k-th distance.
            if not written.isdisjoint(map(itemgetter(0), value)) or (
                moving and len(value) < op.k
            ):
                hit[i] = True
                continue
        elif kind is ProximityPairs:
            hit[i] = moving or not deleted.isdisjoint(
                chain.from_iterable(value)
            )
            continue
        elif kind not in _KERNELS or not written.isdisjoint(value):
            hit[i] = True
            continue
        if moving:
            kernel, fields = _KERNELS[kind]
            at, params = tested[kernel]
            at.append(i)
            params.append(
                (*fields(op), value[-1][1]) if kind is Nearest else fields(op)
            )
    for kernel, (at, params) in tested.items():
        if not at:
            continue
        columns = np.array(params, dtype=np.float64).T
        reached = _reached(kernel, columns, y0, v, t0).tolist()
        for i, found in zip(at, reached):
            hit[i] = found
    return hit
