"""Deterministic fault injection for the durability layer (chaos layer).

Distributed moving-object systems treat shard failure as routine
(MOIST checkpoints index state across worker loss; distributed
continuous-query processors partition work over fallible nodes).  A
shard is up or down: every fault is a crash, and a crashed shard stays
down until it is recovered from its checkpoint + write-ahead log.  The
service takes a shard down one way,
:meth:`~repro.service.replication.FaultTolerantMotionService.kill_shard`
— an operator's kill, a log ``OSError`` or a pool worker's death — so
chaos tests fail shards through the same paths: a kill between sets, a
failing log file inside one.

What this module adds is finer-grained and aimed at the durability
layer: :class:`CrashPointInjector` kills a :mod:`repro.storage` write
at an exact boundary (mid-record, pre-fsync, post-fsync-pre-rename,
...), and :func:`flip_bit` / :func:`truncate_file` corrupt the
surviving files — together they drive the crash-at-every-boundary
recovery matrix in ``tests/test_wal_durability.py``.  A rebalance move
is an ordinary write set, so the same points, armed through the
service's ``wal_crash_hook``, kill one mid-move in
``tests/test_rebalance_chaos.py``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SimulatedCrashError
from repro.storage import ALL_CRASH_POINTS


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
