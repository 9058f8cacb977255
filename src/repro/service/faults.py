"""Deterministic fault injection for the sharded service (chaos layer).

Distributed moving-object systems treat shard failure as routine
(MOIST checkpoints index state across worker loss; distributed
continuous-query processors partition work over fallible nodes).  A
shard is up or down: every fault is a crash, and a crashed shard stays
down until it is recovered from its checkpoint + write-ahead log.  To
crash a shard *inside* one write set or query batch,
:class:`FaultInjector` counts every guarded access of a
:class:`~repro.service.replication.FaultTolerantMotionService` shard
and fails the planned one; the service walks every row of a write
set through the scalar loop's plan and consults it only while holding
that shard's lock, so a run replays exactly even though the thread
pool interleaves shards arbitrarily.

A second, finer-grained injector targets the durability layer:
:class:`CrashPointInjector` kills a :mod:`repro.storage` write at an
exact boundary (mid-record, pre-fsync, post-fsync-pre-rename, ...),
and :func:`flip_bit` / :func:`truncate_file` corrupt the surviving
files — together they drive the crash-at-every-boundary recovery
matrix in ``tests/test_wal_durability.py``.  A rebalance move is an
ordinary write set, so the same points, armed through the service's
``wal_crash_hook``, kill one mid-move in
``tests/test_rebalance_chaos.py``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.errors import InjectedFaultError, SimulatedCrashError
from repro.storage import ALL_CRASH_POINTS


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
        with self._lock:
            count = self._ops.get(shard, 0) + 1
            self._ops[shard] = count
            if count != self._plan.get(shard):
                return  # counts only grow, so a crash fires once
            self._crashed.append(shard)
        raise InjectedFaultError(
            f"injected crash on shard {shard} at op {count} ({operation})"
        )

    def snapshot(self) -> Dict[str, object]:
        """The shards crashed so far, in firing order, and each
        shard's access count."""
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
    points (names in :data:`repro.storage.ALL_CRASH_POINTS` or
    :data:`WRITE_BATCH_CRASH_POINTS`; a name no layer fires raises
    ``ValueError``); when the
    storage layer reaches an armed point for the ``at``-th time, the
    injector raises :class:`~repro.errors.SimulatedCrashError` and the
    storage object dies exactly as a killed process would.  Each armed
    point fires once; recovery means reopening the files.
    """

    def __init__(
        self, plan: Optional[Dict[str, CrashPointSpec]] = None
    ) -> None:
        self._armed: Dict[str, CrashPointSpec] = dict(plan or {})
        for point in self._armed:
            _check_point(point)
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
        _check_point(point)
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


#: Crash points of the write path outside the storage layer.  Pass a
#: :class:`CrashPointInjector` as the ``crash_hook`` of
#: ``HoughYForestIndex.bulk_build`` to die at the boundary:
#:
#: * ``bulk.mid_pack`` — an STR-style bulk rebuild died between
#:   packing two trees of the forest; the half-built generation must
#:   be discarded, never adopted.
#:
#: A write set dies at its logs' own points, armed through
#: ``FaultTolerantMotionService(wal_crash_hook=...)``: at
#: ``log.pre_fsync`` a shard's grouped records are appended but not yet
#: fsynced, and recovery must land an all-or-prefix cut of that group.
WRITE_BATCH_CRASH_POINTS = ("bulk.mid_pack",)


def _check_point(point: str) -> None:
    """Refuse a crash point no layer fires: armed, it never would."""
    known = ALL_CRASH_POINTS + WRITE_BATCH_CRASH_POINTS
    if point not in known:
        raise ValueError(f"unknown crash point {point!r}; known: {known}")


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
