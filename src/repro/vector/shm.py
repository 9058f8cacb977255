"""Shared-memory columnar store: the cross-process twin of
:class:`~repro.vector.columns.MotionColumns`.

One CPython interpreter can only run one shard's kernels at a time, so
the worker-process tier (:mod:`repro.service.parallel`) needs each
shard's ``(oid, y0, v, t0)`` columns reachable from *other* processes
without pickling a single row.  :class:`SharedMotionColumns` keeps the
exact ``upsert``/``delete``/``apply_events`` contract of the in-process
store but allocates its buffers inside one
:mod:`multiprocessing.shared_memory` segment, so a worker attaches by
*name* and reads the live rows directly.

Segment layout (all fields 8-byte aligned)::

    int64 header[4]      # [seq, n, version, capacity]
    int64 oid[capacity]
    float64 y0[capacity]
    float64 v[capacity]
    float64 t0[capacity]

Consistency is a **seqlock**: every mutation happens inside a write
window that makes ``header.seq`` odd on entry and even again on exit
(with ``n`` and ``version`` republished in between).  A reader spins
until it observes an even ``seq``, copies the live rows, and re-reads
``seq``; an unchanged value proves the copy is a torn-free snapshot of
one published state.  Batches (:meth:`apply_events`) hold the window
open for the whole batch, so readers can never observe a half-applied
batch either — they see the pre-batch or the post-batch state, nothing
in between.

Growth reallocates into a *fresh* segment (capacity-doubling from the
live size, the same policy as the in-process store): the store's
``segment_name`` changes, the retired segment is left with an odd
``seq`` forever (a reader that raced the growth times out and refetches
the current name from the owner) and is unlinked when the store is
closed.  The writer process owns every segment; readers never write.

Cleanup discipline: every allocated segment is tracked in a
module-level registry and unlinked by :meth:`SharedMotionColumns.close`,
by garbage collection (a :func:`weakref.finalize` hook), and — as the
last resort CI machines rely on — by an :mod:`atexit` sweep, so no
``/dev/shm`` segment outlives the owning process.

Memory-ordering caveat: the seqlock relies on total-store-order
semantics (x86-64) plus the full barriers implied by the queue
syscalls between publisher and reader; on weakly-ordered ISAs a torn
read would still be caught by the ``seq`` re-check with overwhelming
probability, and every reader failure degrades to the owner's
in-process fallback rather than a wrong answer.
"""

from __future__ import annotations

import atexit
import os
import time
import weakref
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.vector.columns import _MIN_CAPACITY, MotionColumns

#: int64 slots in the segment header: [seq, n, version, capacity].
HEADER_FIELDS = 4
HEADER_BYTES = 8 * HEADER_FIELDS

#: How long a reader spins for an even seqlock before giving up.
READ_TIMEOUT_S = 1.0

#: Sleep between seqlock spins (the writer's window is microseconds
#: except while a whole batch is being applied).
_SPIN_SLEEP_S = 0.0002


class TornSegmentError(RuntimeError):
    """A reader could not obtain a stable snapshot of a segment.

    Raised after :data:`READ_TIMEOUT_S` of spinning — either the
    segment was retired mid-write (its ``seq`` stays odd forever) or
    the writer is wedged.  Callers fall back to asking the owning
    process directly.
    """


def segment_size(capacity: int) -> int:
    """Bytes needed for a segment holding ``capacity`` rows."""
    return HEADER_BYTES + 4 * 8 * capacity


def _fresh_name() -> str:
    return f"repro-cols-{os.getpid()}-{os.urandom(4).hex()}"


# -- process-wide segment registry (leak-proofing) ----------------------------

#: Segments created by this process that are still linked; the atexit
#: sweep unlinks whatever close()/GC did not get to.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _registry_add(shm: shared_memory.SharedMemory) -> None:
    _LIVE_SEGMENTS[shm.name] = shm


def _release_segments(segments) -> None:
    """Close + unlink a list of segments (idempotent, never raises)."""
    for shm in list(segments):
        _LIVE_SEGMENTS.pop(shm.name, None)
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    del segments[:]


@atexit.register
def _atexit_sweep() -> None:
    _release_segments(list(_LIVE_SEGMENTS.values()))
    _LIVE_SEGMENTS.clear()


def live_segment_names() -> Tuple[str, ...]:
    """Names of segments this process has created and not yet unlinked
    (the leak-test observable)."""
    return tuple(_LIVE_SEGMENTS)


# -- views over a raw buffer --------------------------------------------------


def _views(
    buf, capacity: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(header, oid, y0, v, t0)`` ndarray views over a segment."""
    header = np.ndarray((HEADER_FIELDS,), dtype=np.int64, buffer=buf)
    offset = HEADER_BYTES
    oid = np.ndarray((capacity,), dtype=np.int64, buffer=buf, offset=offset)
    offset += 8 * capacity
    y0 = np.ndarray((capacity,), dtype=np.float64, buffer=buf, offset=offset)
    offset += 8 * capacity
    v = np.ndarray((capacity,), dtype=np.float64, buffer=buf, offset=offset)
    offset += 8 * capacity
    t0 = np.ndarray((capacity,), dtype=np.float64, buffer=buf, offset=offset)
    return header, oid, y0, v, t0


class SharedMotionColumns(MotionColumns):
    """A :class:`MotionColumns` whose buffers live in shared memory.

    Drop-in for the in-process store (same mutation and query
    contract, same growth policy, byte-identical kernel inputs); adds
    :attr:`segment_name` for cross-process attachment and seqlock
    publication around every mutation.  Only the creating process may
    write; it is also the only one that unlinks.
    """

    __slots__ = ("_shm", "_header", "_segments", "_finalizer", "__weakref__")

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._segments = []
        self._shm = None
        self._allocate(capacity, seq=0)
        self._n = 0
        self._slots = {}
        self.version = 0
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    # -- allocation -----------------------------------------------------------

    def _allocate(self, capacity: int, seq: int) -> None:
        """Point the store at a fresh segment of ``capacity`` rows."""
        shm = shared_memory.SharedMemory(
            create=True, size=segment_size(capacity), name=_fresh_name()
        )
        _registry_add(shm)
        self._segments.append(shm)
        header, oid, y0, v, t0 = _views(shm.buf, capacity)
        header[0] = seq
        header[1] = 0
        header[2] = 0
        header[3] = capacity
        self._shm = shm
        self._header = header
        self._oid = oid
        self._y0 = y0
        self._v = v
        self._t0 = t0

    @property
    def segment_name(self) -> str:
        """The current segment's attach name (changes on growth)."""
        return self._shm.name

    @property
    def segment_count(self) -> int:
        """Live segments owned by this store (current + retired)."""
        return len(self._segments)

    def _grow(self, needed: int) -> None:
        """Growth = a fresh, larger segment (the name changes).

        Runs inside a write window, so the retired segment's ``seq``
        is odd and stays odd: late readers of the old name time out
        instead of observing the mid-write state it froze in.  The new
        segment starts with the same odd ``seq`` and is published by
        the enclosing window's exit.
        """
        capacity = self._next_capacity(needed)
        n = self._n
        old = (self._oid, self._y0, self._v, self._t0)
        seq = int(self._header[0])
        self._allocate(capacity, seq=seq)
        self._oid[:n] = old[0][:n]
        self._y0[:n] = old[1][:n]
        self._v[:n] = old[2][:n]
        self._t0[:n] = old[3][:n]
        self._header[1] = n
        self._header[2] = self.version

    # -- seqlock write windows ------------------------------------------------

    @contextmanager
    def _write(self) -> Iterator[None]:
        """One publication window: seq odd on entry, even on exit.

        ``self._header`` is re-read on exit because a growth inside
        the window swaps the active segment.
        """
        self._header[0] += 1
        try:
            yield
        finally:
            header = self._header
            header[1] = self._n
            header[2] = self.version
            header[0] += 1

    def upsert(self, oid, motion) -> None:
        with self._write():
            super().upsert(oid, motion)

    def delete(self, oid) -> None:
        with self._write():
            super().delete(oid)

    def clear(self) -> None:
        with self._write():
            super().clear()

    def apply_events(self, gone, written) -> None:
        with self._write():
            super().apply_events(gone, written)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Unlink every owned segment now (idempotent; GC and atexit
        are the fallbacks when this is never called)."""
        self._finalizer.detach()
        _release_segments(self._segments)


# -- reader side (worker processes) -------------------------------------------


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment read-only-by-convention.

    Works around the resource-tracker behaviour of pre-3.13 CPython
    (an attaching process would otherwise *unlink* the segment when it
    exits): where ``track=False`` is unavailable the attachment is
    unregistered from the tracker by hand — the creating process owns
    the unlink.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        import multiprocessing

        shm = shared_memory.SharedMemory(name=name)
        if (
            f"-{os.getpid()}-" in name
            or multiprocessing.parent_process() is not None
        ):
            # The creating process, or a multiprocessing child sharing
            # the creator's resource-tracker daemon: the attach's
            # register was a no-op against the creation's entry, and
            # unregistering here would strip that entry out from under
            # the creator's eventual unlink.  Leave the tracker alone.
            return shm
        try:  # pragma: no cover - version-dependent
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        return shm


def read_snapshot(
    shm: shared_memory.SharedMemory,
    timeout_s: float = READ_TIMEOUT_S,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """A torn-free ``(oid, y0, v, t0, version)`` copy of the live rows.

    The seqlock read protocol: wait for an even ``seq``, copy, confirm
    ``seq`` unchanged.  Raises :class:`TornSegmentError` after
    ``timeout_s`` of instability (a retired or wedged segment).
    """
    header = np.ndarray((HEADER_FIELDS,), dtype=np.int64, buffer=shm.buf)
    deadline = time.monotonic() + timeout_s
    while True:
        seq = int(header[0])
        if seq % 2 == 0:
            n = int(header[1])
            version = int(header[2])
            capacity = int(header[3])
            _, oid, y0, v, t0 = _views(shm.buf, capacity)
            out = (
                oid[:n].copy(),
                y0[:n].copy(),
                v[:n].copy(),
                t0[:n].copy(),
            )
            if int(header[0]) == seq:
                return (*out, version)
        if time.monotonic() >= deadline:
            raise TornSegmentError(
                f"segment {shm.name!r} never stabilized within "
                f"{timeout_s}s (seq={int(header[0])})"
            )
        time.sleep(_SPIN_SLEEP_S)
