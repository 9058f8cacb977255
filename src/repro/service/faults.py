"""Deterministic fault injection for the sharded service (chaos layer).

Distributed moving-object systems treat shard failure as routine
(MOIST checkpoints index state across worker loss; distributed
continuous-query processors partition work over fallible nodes).  A
shard is up or down: every fault is a crash, and a crashed shard stays
down until it is recovered from its checkpoint + write-ahead log.  To
crash a shard *inside* one write set or query batch,
:class:`FaultInjector` counts every guarded access of a
:class:`~repro.service.replication.FaultTolerantMotionService` shard
and fails the planned one; the service only consults it while holding
that shard's lock, so a run replays exactly even though the thread
pool interleaves shards arbitrarily.

A second, finer-grained injector targets the durability layer:
:class:`CrashPointInjector` kills a :mod:`repro.storage` write at an
exact boundary (mid-record, pre-fsync, post-fsync-pre-rename, ...),
and :func:`flip_bit` / :func:`truncate_file` corrupt the surviving
files — together they drive the crash-at-every-boundary recovery
matrix in ``tests/test_wal_durability.py``.  A rebalance move is an
ordinary write set, so the same points (plus
:data:`WRITE_BATCH_CRASH_POINTS`) kill one mid-move in
``tests/test_rebalance_chaos.py``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.errors import InjectedFaultError, SimulatedCrashError


class FaultInjector:
    """One-shot shard crashes at planned operation counts.

    ``crash_on_op`` maps a shard to the (1-based) guarded access on
    which it crashes.  Each crash fires once: after recovery the shard
    keeps counting and never re-crashes on the same plan.
    """

    def __init__(self, crash_on_op: Mapping[int, int]) -> None:
        for shard, op in crash_on_op.items():
            if op < 1:
                raise ValueError(
                    f"crash_on_op is 1-based, got {op} for shard {shard}"
                )
        self._plan: Dict[int, int] = dict(crash_on_op)
        self._ops: Dict[int, int] = {}
        self._crashed: List[int] = []
        self._lock = threading.Lock()

    def on_op(self, shard: int, operation: str) -> None:
        """Count one access of ``shard``; raise
        :class:`InjectedFaultError` if it is the planned crash."""
        if not self.on_ops(shard, 1):
            raise InjectedFaultError(
                f"injected crash on shard {shard} at op "
                f"{self._plan[shard]} ({operation})"
            )

    def on_ops(self, shard: int, n: int) -> int:
        """Count up to ``n`` consecutive accesses of ``shard``, as ``n``
        calls of :meth:`on_op` would up to the first that raises: the
        number admitted before the planned crash (``n`` when it is not
        among them).  The crashing access is counted and recorded; the
        ones after it are not, since they find the shard down."""
        with self._lock:
            count = self._ops.get(shard, 0)
            crash = self._plan.get(shard, 0)
            if not count < crash <= count + n:
                self._ops[shard] = count + n
                return n  # counts only grow, so a crash fires once
            self._ops[shard] = crash
            self._crashed.append(shard)
            return crash - count - 1

    def snapshot(self) -> Dict[str, object]:
        """The shards crashed so far, in firing order, and each
        shard's access count.  A write set admits a shard's run of
        plain rows at once (:meth:`on_ops`), so two crashes landing in
        one set's runs on different shards fire in shard order, where
        one op at a time would fire them in op order; the counts, and
        the op each crash lands on, are the same either way."""
        with self._lock:
            return {
                "crashed_shards": list(self._crashed),
                "ops_per_shard": dict(self._ops),
            }


# -- durability-boundary crash injection ----------------------------------------


@dataclass(frozen=True)
class CrashPointSpec:
    """One armed durability boundary.

    at:
        Fire on the ``at``-th (1-based) arrival at the point.
    write_prefix:
        For ``log.mid_record``: bytes of the in-flight frame that
        reach disk before death (``None`` = half the frame, ``0`` =
        nothing).  Ignored at other points.
    drop_unsynced:
        Also discard everything written since the last ``fsync`` —
        the page-cache-loss worst case a real power cut allows.
    """

    at: int = 1
    write_prefix: Optional[int] = None
    drop_unsynced: bool = False

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError(f"at is 1-based, got {self.at}")


class CrashPointInjector:
    """Kills a storage-layer write at an exact durability boundary.

    Instances are callables matching the ``crash_hook`` slot of
    :class:`~repro.storage.log.DurableLog` /
    :class:`~repro.storage.checkpoint.CheckpointStore` /
    :class:`~repro.storage.backend.FileWALBackend`.  Arm one or more
    points (names in :data:`repro.storage.ALL_CRASH_POINTS`); when the
    storage layer reaches an armed point for the ``at``-th time, the
    injector raises :class:`~repro.errors.SimulatedCrashError` and the
    storage object dies exactly as a killed process would.  Each armed
    point fires once; recovery means reopening the files.
    """

    def __init__(
        self, plan: Optional[Dict[str, CrashPointSpec]] = None
    ) -> None:
        self._armed: Dict[str, CrashPointSpec] = dict(plan or {})
        self._hits: Dict[str, int] = {}
        self._fired: list = []
        self._lock = threading.Lock()

    def arm(
        self,
        point: str,
        at: int = 1,
        write_prefix: Optional[int] = None,
        drop_unsynced: bool = False,
    ) -> "CrashPointInjector":
        """Arm ``point``; returns ``self`` for chaining."""
        with self._lock:
            self._armed[point] = CrashPointSpec(
                at=at, write_prefix=write_prefix,
                drop_unsynced=drop_unsynced,
            )
        return self

    def __call__(self, point: str) -> None:
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            spec = self._armed.get(point)
            if spec is None or count != spec.at:
                return
            del self._armed[point]
            self._fired.append((point, count))
        raise SimulatedCrashError(
            f"injected crash at {point} (arrival {count})",
            write_prefix=spec.write_prefix,
            drop_unsynced=spec.drop_unsynced,
        )

    def hits(self, point: str) -> int:
        with self._lock:
            return self._hits.get(point, 0)

    @property
    def fired(self) -> list:
        with self._lock:
            return list(self._fired)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "armed": sorted(self._armed),
                "hits": dict(self._hits),
                "fired": list(self._fired),
            }


#: Crash points of the batched write path, in protocol order.  Pass a
#: :class:`CrashPointInjector` as the ``crash_hook`` of
#: ``FaultTolerantMotionService.apply_batch`` or ``rehome``, healthy or
#: degraded (or of ``HoughYForestIndex.bulk_build``) to die at the
#: boundary:
#:
#: * ``write_batch.pre_fsync`` — a shard's grouped WAL records are
#:   appended (page cache) but not yet fsynced; with
#:   ``drop_unsynced=True`` recovery must land an all-or-prefix cut of
#:   that shard's sub-batch, never a torn interleaving;
#: * ``bulk.mid_pack`` — an STR-style bulk rebuild died between
#:   packing two trees of the forest; the half-built generation must
#:   be discarded, never adopted.
WRITE_BATCH_CRASH_POINTS = (
    "write_batch.pre_fsync",
    "bulk.mid_pack",
)


# -- deliberate file corruption (bit rot / torn hardware) ------------------------


def flip_bit(path: str, byte_offset: int, bit: int = 0) -> None:
    """Flip one bit of ``path`` in place (simulated bit rot).

    Recovery must treat the damaged record — and everything after it —
    as uncommitted, never raise an unhandled exception.
    """
    if not 0 <= bit <= 7:
        raise ValueError(f"bit must be in [0, 7], got {bit}")
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if not 0 <= byte_offset < size:
            raise ValueError(
                f"byte_offset {byte_offset} outside file of {size} bytes"
            )
        handle.seek(byte_offset)
        original = handle.read(1)[0]
        handle.seek(byte_offset)
        handle.write(bytes([original ^ (1 << bit)]))


def truncate_file(path: str, size: int) -> None:
    """Cut ``path`` to ``size`` bytes (simulated torn tail)."""
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    os.truncate(path, size)
