"""Deterministic fault injection for the sharded service (chaos layer).

Distributed moving-object systems treat shard failure as routine
(MOIST checkpoints index state across worker loss; distributed
continuous-query processors partition work over fallible nodes).  To
test that discipline without real crashes, :class:`FaultInjector`
wraps every shard operation of a
:class:`~repro.service.replication.FaultTolerantMotionService` and
injects three failure classes, all seeded from one RNG so a chaos run
replays exactly:

* **transient errors** — :class:`~repro.errors.InjectedFaultError`
  with ``kind="error"``, eligible for bounded retry-with-backoff;
* **latency spikes** — a configurable sleep before the operation;
* **crashes** — on a shard's ``N``-th operation the injector raises
  ``kind="crash"``; the service marks the shard down until it is
  recovered from its checkpoint + write-ahead log.

Determinism: each shard draws from its own ``random.Random`` seeded
as ``seed * 1_000_003 + shard`` and counts its own operations, and the
service only consults the injector while holding that shard's lock —
so per-shard fault sequences are reproducible even though the thread
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
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.errors import InjectedFaultError, SimulatedCrashError


@dataclass(frozen=True)
class FaultSpec:
    """Fault mix for one shard (all rates are per-operation).

    error_rate:
        Probability of a transient :class:`InjectedFaultError`.
    latency_rate / latency_s:
        Probability and duration of an injected latency spike.
    crash_on_op:
        Crash the shard when its (1-based) operation counter reaches
        this value; ``None`` disables.  A crash fires once — after
        recovery the shard does not re-crash on the same spec.
    """

    error_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.0
    crash_on_op: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate not a probability: {self.error_rate}")
        if not 0.0 <= self.latency_rate <= 1.0:
            raise ValueError(
                f"latency_rate not a probability: {self.latency_rate}"
            )
        if self.error_rate + self.latency_rate > 1.0:
            raise ValueError("error_rate + latency_rate must be <= 1")
        if self.crash_on_op is not None and self.crash_on_op < 1:
            raise ValueError(
                f"crash_on_op is 1-based, got {self.crash_on_op}"
            )


class FaultInjector:
    """Seeded per-shard fault source.

    Parameters
    ----------
    seed:
        Root seed; shard ``i`` draws from ``seed * 1_000_003 + i``.
    default:
        :class:`FaultSpec` applied to shards without an override.
    per_shard:
        ``{shard_id: FaultSpec}`` overrides (e.g. a crash plan for one
        victim shard).
    sleep:
        Injected-latency sleep function (tests pass a recorder).
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[FaultSpec] = None,
        per_shard: Optional[Dict[int, FaultSpec]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = seed
        self._default = default or FaultSpec()
        self._per_shard = dict(per_shard or {})
        self._sleep = sleep
        self._rngs: Dict[int, random.Random] = {}
        self._ops: Dict[int, int] = {}
        self._crashed: Set[int] = set()
        self._crash_fired: Set[int] = set()
        self._injected = {"errors": 0, "latencies": 0, "crashes": 0}
        self._lock = threading.Lock()

    def spec_for(self, shard: int) -> FaultSpec:
        return self._per_shard.get(shard, self._default)

    def on_op(self, shard: int, operation: str) -> None:
        """Consult the fault plan before shard ``shard`` runs ``operation``.

        Raises :class:`InjectedFaultError` (``kind="error"`` transient,
        ``kind="crash"`` fatal) or sleeps through a latency spike;
        returns normally when no fault fires.
        """
        spec = self.spec_for(shard)
        with self._lock:
            count = self._ops.get(shard, 0) + 1
            self._ops[shard] = count
            rng = self._rngs.get(shard)
            if rng is None:
                rng = self._rngs[shard] = random.Random(
                    self.seed * 1_000_003 + shard
                )
            if (
                spec.crash_on_op is not None
                and count >= spec.crash_on_op
                and shard not in self._crash_fired
            ):
                self._crash_fired.add(shard)
                self._crashed.add(shard)
                self._injected["crashes"] += 1
                raise InjectedFaultError(
                    f"injected crash on shard {shard} at op {count} "
                    f"({operation})",
                    kind="crash",
                )
            draw = rng.random()
            if draw < spec.error_rate:
                self._injected["errors"] += 1
                raise InjectedFaultError(
                    f"injected transient fault on shard {shard} "
                    f"({operation}, op {count})"
                )
            spike = draw < spec.error_rate + spec.latency_rate
            if spike:
                self._injected["latencies"] += 1
        if spike:
            self._sleep(spec.latency_s)

    # -- crash bookkeeping -----------------------------------------------------

    def crashed(self, shard: int) -> bool:
        with self._lock:
            return shard in self._crashed

    def clear_crash(self, shard: int) -> None:
        """Acknowledge a recovery; the one-shot crash does not re-fire."""
        with self._lock:
            self._crashed.discard(shard)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "injected": dict(self._injected),
                "ops_per_shard": dict(self._ops),
                "crashed_shards": sorted(self._crashed),
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
