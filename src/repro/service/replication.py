"""Fault-tolerant sharded serving: replication, failover, degradation.

:class:`FaultTolerantMotionService` extends
:class:`~repro.service.service.ShardedMotionService` with the fault
model of distributed moving-object systems (MOIST-style checkpointed
workers; distributed continuous-range-query processing over fallible
nodes).  It re-implements no verb and no batch: the base class writes
every one against three seams, and this class overrides the seams —
``replica_group``; the guarded shard access (``_guard``,
``_guard_run``, ``_apply_sub_batch``, ``_stale``, ``_answerable``);
and the ``_log`` /
``_degrade`` pair — plus the kill / recover / restore administration
(every log write of those seams goes through one helper, ``_logged``):

* **Replication** — every object lives on ``replication_factor``
  consecutive shards: primary ``p = route(oid)`` plus replicas
  ``(p+1) % k, ...``.  Writes go to every *live* member of the group
  (write-all-live); a write succeeds iff at least one replica applied
  and logged it.  A write set, healthy or not, reaches each shard as
  the base class's does — the planned steps ``_guard`` (a batch's
  runs of plain rows, ``_guard_run``) admitted — and
  is then logged: a batch's group as one grouped commit synced before
  ``apply_batch`` returns, a scalar verb's op as one append under the
  fsync policy.  A shard whose log raises ``OSError`` — a write set's
  or a band marker's — goes down.  The catalog additionally remembers
  each object's authoritative motion, which is what recovery
  reconciles against.
* **Fault handling** — a shard is up or down.  Every fault is a
  crash: an operator :meth:`kill_shard`, a pool worker's death, a log
  ``OSError``, or an injected crash on a planned access (the optional
  :class:`~repro.service.faults.FaultInjector`) takes the shard down,
  and it stays down — skipped by queries, which its replicas answer,
  and by writes, which reach every other live replica — until
  :meth:`recover_shard` or :meth:`restore_from_disk`.  Nothing is
  retried: a shard that missed a write must not keep serving.
* **Recovery** — :meth:`recover_shard` rebuilds a dead shard from its
  checkpoint + write-ahead-log tail (byte-identical to its pre-crash
  committed state), then reconciles against the catalog to pick up
  writes that landed on the surviving replicas while it was down.
* **Graceful degradation** — queries never raise for a dead shard.
  When every member of some replica group is unavailable the answer
  is a :class:`PartialResult` carrying the reachable answer set plus
  the unavailable primaries, and a
  :class:`~repro.errors.DegradedResultWarning` is emitted.  With full
  coverage the plain result is returned, byte-identical to a
  faultless single database.

Invariants (the chaos tests check these):

1. an *up* shard has applied every write for every group it belongs
   to — shards that miss a write are down by construction;
2. WAL append happens *after* the database apply (redo log of
   committed operations), so checkpoint + replay reproduces exactly
   the committed pre-crash state;
3. the catalog (owner + motion) is updated only after at least one
   replica applied and logged the write, so it always describes a
   state that is durable somewhere.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    InjectedFaultError,
    ShardUnavailableError,
)
from repro.service.faults import FaultInjector
from repro.service.metrics import MetricsRegistry, wal_event_recorder
from repro.service.service import (
    ShardedMotionService,
    ShardRouter,
    _at,
    _keys_at,
    _no_hook,
)
from repro.service.sharding import BandRouter
from repro.service.wal import ShardWAL
from repro.storage.backend import FileWALBackend
from repro.vector.ops import (
    DeregisterOp,
    RegisterOp,
    ReportOp,
    WriteOp,
    write_record,
)

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class PartialResult:
    """A degraded query answer: what could be answered, plus the gap.

    ``value`` is the usual result (id set, ranked list, pair set)
    restricted to objects with at least one reachable replica;
    ``unavailable_shards`` lists the primary shards whose entire
    replica group was unreachable.  ``complete`` is always ``False``
    so callers can branch without an isinstance check.
    """

    value: object
    unavailable_shards: Tuple[int, ...]

    @property
    def complete(self) -> bool:
        return False

    def __iter__(self):
        return iter(self.value)

    def __len__(self) -> int:
        return len(self.value)

    def __contains__(self, item: object) -> bool:
        return item in self.value


@dataclass
class _ShardNode:
    """Fault-tolerance state riding alongside one shard database."""

    shard_id: int
    wal: ShardWAL
    status: str = UP
    down_reason: Optional[str] = None
    crashes: int = 0

    @property
    def up(self) -> bool:
        return self.status == UP

    def mark_down(self, reason: str) -> None:
        self.status = DOWN
        self.down_reason = reason
        self.crashes += 1

    def mark_up(self) -> None:
        self.status = UP
        self.down_reason = None


class FaultTolerantMotionService(ShardedMotionService):
    """Replicated, crash-tolerant variant of the sharded service.

    Additional parameters over :class:`ShardedMotionService`:

    replication_factor:
        Copies per object (``1 <= r <= shards``).  ``r=1`` keeps the
        base data layout but still adds WAL recovery and degradation.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector` consulted
        before every shard touch (chaos testing): it crashes a shard on
        a planned access.  ``None`` disables injection entirely.
    wal_dir:
        When set, each shard's WAL writes through a durable
        :class:`~repro.storage.backend.FileWALBackend` rooted at
        ``<wal_dir>/shard-<i>`` instead of the in-memory null backend.
        A service constructed over a directory holding a previous
        incarnation's files can rebuild that state with
        :meth:`restore_from_disk`.
    wal_fsync:
        Log fsync policy for the durable backend (``always`` /
        ``batch[:N]`` / ``never``); ignored without ``wal_dir``.
    wal_crash_hook:
        Optional durability crash-point hook (a
        :class:`~repro.service.faults.CrashPointInjector`) passed to
        the durable backend; ignored without ``wal_dir``.
    """

    def __init__(
        self,
        y_max: float,
        v_min: float,
        v_max: float,
        shards: int = 4,
        replication_factor: int = 2,
        method: str = "forest",
        index_factory=None,
        keep_history: bool = False,
        router: str | ShardRouter = "hash",
        metrics: Optional[MetricsRegistry] = None,
        fault_injector: Optional[FaultInjector] = None,
        wal_dir: Optional[str] = None,
        wal_fsync: str = "always",
        wal_crash_hook: Optional[Callable[[str], None]] = None,
        workers: int = 0,
        pool=None,
    ) -> None:
        super().__init__(
            y_max,
            v_min,
            v_max,
            shards=shards,
            method=method,
            index_factory=index_factory,
            keep_history=keep_history,
            router=router,
            metrics=metrics,
            workers=workers,
            pool=pool,
        )
        if not 1 <= replication_factor <= shards:
            raise ValueError(
                f"replication_factor must be in [1, {shards}], got "
                f"{replication_factor}"
            )
        self.replication_factor = replication_factor
        self._injector = fault_injector
        self.wal_dir = wal_dir
        recorder = wal_event_recorder(self.metrics)

        def build_wal(shard: int) -> ShardWAL:
            backend = None
            if wal_dir is not None:
                backend = FileWALBackend(
                    os.path.join(wal_dir, f"shard-{shard:02d}"),
                    fsync=wal_fsync,
                    crash_hook=wal_crash_hook,
                    on_event=recorder,
                )
            return ShardWAL(backend=backend, on_event=recorder)

        self._nodes = [_ShardNode(i, build_wal(i)) for i in range(shards)]
        self._catalog_motion: Dict[int, LinearMotion1D] = {}
        self._recoveries = 0

    # -- topology --------------------------------------------------------------

    def replica_group(self, primary: int) -> List[int]:
        """The shards holding objects whose primary is ``primary``."""
        k = self.shard_count
        return [(primary + j) % k for j in range(self.replication_factor)]

    def shard_status(self) -> List[Dict[str, object]]:
        return [
            {
                "shard": node.shard_id,
                "status": node.status,
                "reason": node.down_reason,
                "wal": node.wal.snapshot(),
            }
            for node in self._nodes
        ]

    # -- guarded shard access --------------------------------------------------

    def _guard(self, shard: int, op_name: str) -> None:
        """Admit one shard access: the down check, then the injector.

        Raises :class:`ShardUnavailableError` when the shard is down,
        or when the injector crashes it on this access, which takes it
        down until recovered.  Without an injector this is the down
        check alone.
        """
        node = self._nodes[shard]
        if not node.up:
            raise ShardUnavailableError(
                f"shard {shard} is down ({node.down_reason})"
            )
        if self._injector is None:
            return
        try:
            self._injector.on_op(shard, op_name)
        except InjectedFaultError as exc:
            node.mark_down(f"injected crash during {op_name}")
            raise ShardUnavailableError(
                f"shard {shard} failed {op_name}: {exc}"
            ) from exc

    def _guard_run(self, shard, n, name_at) -> int:
        """:meth:`_guard` over a run of accesses: none if the shard is
        down, else those the injector counts before its planned crash
        (:meth:`~repro.service.faults.FaultInjector.on_ops`), which
        takes the shard down on the access it lands on."""
        node = self._nodes[shard]
        if not node.up:
            return 0
        if self._injector is None:
            return n
        admitted = self._injector.on_ops(shard, n)
        if admitted < n:
            node.mark_down(f"injected crash during {name_at(admitted)}")
        return admitted

    def _log(self, shard: int, kind: str, **fields: object) -> bool:
        """Append a marker record to a live shard's WAL; ``True`` iff
        the shard is live and the marker logged (see :meth:`_logged`,
        which here checkpoints nothing)."""
        return self._nodes[shard].up and self._logged(
            shard, lambda wal: wal.append(kind, **fields), checkpoint=False
        )

    def _logged(
        self,
        shard: int,
        append: Callable[[ShardWAL], object],
        checkpoint: bool = True,
    ) -> bool:
        """Log what ``shard`` just applied — ``append(wal)`` — then,
        with ``checkpoint``, at most one checkpoint; ``True`` iff the
        log took the records.

        An ``OSError`` takes the shard down (:meth:`_stale`).  From the
        append or its sync: the shard holds writes its log lacks, and
        has taken nothing.  From the checkpoint: the records are
        already logged, so the shard took them, but the log's state is
        unknown until the shard recovers."""
        wal = self._nodes[shard].wal
        try:
            append(wal)
        except OSError as exc:
            self._stale(shard, f"log write failed: {exc}")
            return False
        if checkpoint:
            try:
                wal.maybe_checkpoint(self._shards[shard])
            except OSError as exc:
                self._stale(shard, f"checkpoint failed: {exc}")
        return True

    def _answerable(self, shard: int) -> bool:
        """Queries skip a down shard."""
        return self._nodes[shard].up

    # -- updates ----------------------------------------------------------------

    def _commit_write(self, op, owner) -> None:
        """Catalog commit, plus the authoritative motion recovery
        reconciles against: the float64 fields the op's rows hold
        (``float`` of an admitted field is that value), never the
        caller's own number types."""
        super()._commit_write(op, owner)
        if type(op) is DeregisterOp:
            self._catalog_motion.pop(op.oid, None)
        else:
            self._catalog_motion[op.oid] = LinearMotion1D(
                float(op.y0), float(op.v), float(op.t0)
            )

    def _commit_rows(self, batch, put, primary, gone) -> None:
        """Catalog commit of plain rows, plus their authoritative
        motions, built from the set's float64 columns (what
        :meth:`_commit_write` takes from the op's fields)."""
        super()._commit_rows(batch, put, primary, gone)
        motions = self._catalog_motion
        motions.update(zip(_keys_at(batch, put), map(
            LinearMotion1D,
            *(_at(column, put).tolist()
              for column in (batch.y0, batch.v, batch.t0)),
        )))
        for oid in _keys_at(batch, gone):
            motions.pop(oid, None)

    def _current_motion(self, oid: int, shard: int) -> LinearMotion1D:
        """From the catalog: well-defined even while ``shard`` is down."""
        with self._catalog_lock:
            return self._catalog_motion[oid]

    def _apply_sub_batch(self, shard, sub_ops, span, hook, per_op) -> bool:
        """The base's apply, then the log (:meth:`_logged`): a batch's
        group as one grouped commit — append, ``write_batch.pre_fsync``
        (here the log sits where the base only fires the hook), sync —
        a scalar verb's sub-ops as one :meth:`ShardWAL.append` each
        under the fsync policy; then at most one checkpoint."""
        super()._apply_sub_batch(shard, sub_ops, span, _no_hook, per_op)
        records = list(map(write_record, sub_ops))

        def append(wal: ShardWAL) -> None:
            if per_op:
                for kind, fields in records:
                    wal.append(kind, **fields)
            else:
                wal.append_batch(records)
                hook("write_batch.pre_fsync")
                wal.sync()

        return self._logged(shard, append)

    def _stale(self, shard: int, reason: str) -> None:
        """Down until recovered, like a crash (:meth:`kill_shard`)."""
        self.kill_shard(shard, reason=reason)

    # -- queries ----------------------------------------------------------------

    def _uncovered(self, answered: Set[int]) -> Tuple[int, ...]:
        """Primaries whose whole replica group went unanswered (and
        that actually own objects — an empty dead group is no loss).

        The dark groups come first, from the topology alone; the owner
        map is read only when one exists, and only until each dark
        primary has shown an object."""
        dark = {
            p for p in range(self.shard_count)
            if answered.isdisjoint(self.replica_group(p))
        }
        if not dark:
            return ()
        owning: Set[int] = set()
        with self._catalog_lock:
            for p in self._owner.values():
                if p in dark:
                    owning.add(p)
                    if len(owning) == len(dark):
                        break
        return tuple(sorted(owning))

    def _degrade(self, name: str, value, answered: Set[int]):
        unavailable = self._uncovered(answered)
        if not unavailable:
            return value
        warnings.warn(
            DegradedResultWarning(
                f"{name}: replica groups of primaries "
                f"{list(unavailable)} are unavailable; returning a "
                f"partial result"
            ),
            stacklevel=4,
        )
        return PartialResult(value=value, unavailable_shards=unavailable)

    # -- failure administration --------------------------------------------------

    def _handle_worker_death(self, shards: List[int]) -> bool:
        """A pool worker died mid-batch: treat its shards as crashed.

        Routes the loss through the *existing* failure machinery
        instead of recomputing inline: each lost lane's shard is
        marked down (cache generation floored, exactly like an
        operator :meth:`kill_shard`), and returning ``False`` tells
        the base fan-out to leave those lanes unanswered — the batch
        merges the lanes that did answer and :meth:`_degrade` surfaces
        :class:`PartialResult` where coverage was genuinely lost.
        :meth:`recover_shard` brings the shard back exactly as after
        any other crash.
        """
        self.metrics.counter("parallel_worker_deaths").increment(
            len(shards)
        )
        for shard in shards:
            self.kill_shard(shard, reason="pool worker death")
        return False

    def kill_shard(self, shard: int, reason: str = "operator kill") -> None:
        """Simulate an abrupt shard death (tests and chaos drills).

        Floors the result cache's write generation: any batch whose
        shard fan-out overlaps the kill may have read this shard
        after it died, so its pending puts are discarded instead of
        memoized (see :meth:`query_batch`).  Entries already resident
        were computed while the shard was up and stay valid.
        """
        with self._locks[shard]:
            self._nodes[shard].mark_down(reason)
        if self.query_cache is not None:
            self.query_cache.bump_generation()

    def down_shards(self) -> List[int]:
        return [n.shard_id for n in self._nodes if not n.up]

    def motion_snapshot(self) -> Dict[int, LinearMotion1D]:
        """Acknowledged oid → motion map, from the authoritative
        catalog — well-defined even while replicas are down."""
        with self._catalog_lock:
            return dict(self._catalog_motion)

    def recover_shard(self, shard: int) -> Dict[str, object]:
        """Rebuild a dead shard: checkpoint + WAL replay, then catalog
        reconciliation.

        Replay alone reproduces the shard's committed pre-crash state
        byte-for-byte; reconciliation then applies everything the
        surviving replicas accepted while this shard was down (the
        catalog's authoritative motions), and takes a fresh checkpoint
        as the new recovery baseline.
        """
        node = self._nodes[shard]
        if node.up:
            raise ValueError(f"shard {shard} is not down")
        with self._locks[shard]:
            db = node.wal.recover(self._build_database)
            replayed = node.wal.snapshot()["tail_records"]
            with self._catalog_lock:
                placements = list(self._owner.items())
                motions = dict(self._catalog_motion)
            repaired, dropped = self._reinstate(shard, db, placements,
                                                motions)
            self._recoveries += 1
        return {
            "shard": shard,
            "replayed": replayed,
            "reconciled": repaired,
            "dropped": dropped,
            "objects": len(db),
        }

    def _reinstate(
        self,
        shard: int,
        db: MotionDatabase,
        placements: Iterable[Tuple[int, int]],
        motions: Dict[int, LinearMotion1D],
    ) -> Tuple[int, int]:
        """Repair a recovered shard to hold exactly the ``motions`` of
        the ``(oid, primary)`` placements whose replica group includes
        it — one ``apply_batch`` of deregisters, registers and reports
        — then checkpoint it and put it back in service; returns
        ``(repaired, dropped)``."""
        primaries = {
            p for p in range(self.shard_count)
            if shard in self.replica_group(p)
        }
        expected = {
            oid: motions[oid] for oid, primary in placements
            if primary in primaries and oid in motions
        }
        current = db.motion_snapshot()
        ops: List[WriteOp] = [
            DeregisterOp(oid) for oid in sorted(current.keys() - expected)
        ]
        dropped = len(ops)
        for oid in sorted(expected):
            m, c = expected[oid], current.get(oid)
            if c is None:
                ops.append(RegisterOp(oid, m.y0, m.v, m.t0))
            elif (m.y0, m.v, m.t0) != (c.y0, c.v, c.t0):
                ops.append(ReportOp(oid, m.y0, m.v, m.t0))
        for refused in db.apply_batch(ops):
            if refused is not None:
                raise refused
        node = self._nodes[shard]
        node.wal.checkpoint(db)
        self._retire_database(self._shards[shard])
        self._shards[shard] = db
        node.mark_up()
        return len(ops) - dropped, dropped

    def restore_from_disk(self) -> Dict[str, object]:
        """Rebuild the whole service from its shards' WAL directories.

        The cold-restart entry point for ``wal_dir`` services: after
        real process death, construct a fresh service over the same
        directory and call this once before serving.  Per shard it
        runs the usual checkpoint + log-tail recovery; then, because
        relaxed fsync policies let replicas of one group survive with
        *different* committed prefixes, it rebuilds the catalog by
        electing, per object, the newest motion any replica retained
        (latest ``t0`` wins; ties are identical by the per-object
        time-order invariant) and reconciles every shard against that
        catalog — so the restored service is exactly as consistent as
        a recovered-shard one, and under ``fsync=always`` byte-equal
        to the pre-crash committed state.

        Must be called before any writes; raises otherwise.
        """
        with self._catalog_lock:
            if self._owner:
                raise ValueError(
                    "restore_from_disk() requires a fresh service; "
                    f"{len(self._owner)} objects already registered"
                )
        per_shard: List[Dict[str, object]] = []
        with self._holding(range(self.shard_count)):
            recovered: List[MotionDatabase] = []
            for node in self._nodes:
                db = node.wal.recover(self._build_database)
                recovered.append(db)
                per_shard.append({
                    "shard": node.shard_id,
                    "replayed": node.wal.snapshot()["tail_records"],
                    "objects": len(db),
                })
            # Reinstall the newest band layout any shard's log
            # retained *before* electing owners, so re-routing uses
            # the same cut the pre-crash service did.  A move cut
            # short by the crash needs no resolution of its own: the
            # election below lands every object on exactly the group
            # the restored router names, whichever copies survived.
            bands: Optional[Dict] = None
            for node in self._nodes:
                record = node.wal.bands_record()
                if record is not None and (
                    bands is None
                    or int(record.get("epoch", 0))
                    > int(bands.get("epoch", 0))
                ):
                    bands = record
            if bands is not None and isinstance(self.router, BandRouter):
                epoch = int(bands["epoch"])
                if epoch > self.router.epoch:
                    self.router.set_bands(bands["edges"], epoch)
            # Elect the authoritative motion per object across replicas.
            elected: Dict[int, LinearMotion1D] = {}
            for db in recovered:
                for oid, motion in db.motion_snapshot().items():
                    best = elected.get(oid)
                    if best is None or (motion.t0, motion.y0, motion.v) > (
                        best.t0, best.y0, best.v
                    ):
                        elected[oid] = motion
            owners = {
                oid: self.router.route(oid, motion)
                for oid, motion in elected.items()
            }
            repaired = dropped = 0
            for node, db in zip(self._nodes, recovered):
                fixed, gone = self._reinstate(
                    node.shard_id, db, owners.items(), elected
                )
                repaired += fixed
                dropped += gone
            with self._catalog_lock:
                self._owner.update(owners)
                self._catalog_motion.update(elected)
            self._notify([
                RegisterOp(oid, m.y0, m.v, m.t0)
                for oid, m in sorted(elected.items())
            ])
            self._recoveries += 1
        return {
            "objects": len(elected),
            "reconciled": repaired,
            "dropped": dropped,
            "shards": per_shard,
            "bands_epoch": (
                self.router.epoch
                if isinstance(self.router, BandRouter)
                else None
            ),
        }

    def close(self) -> None:
        """Release durable-backend resources (log file handles) and
        the parallel tier (owned pool + shared segments)."""
        for node in self._nodes:
            node.wal.close()
        super().close()

    # -- accounting --------------------------------------------------------------

    def service_stats(self) -> Dict[str, object]:
        """Base snapshot plus the fault-tolerance view (health, WAL
        and injected-crash accounting)."""
        stats = super().service_stats()
        stats["fault_tolerance"] = {
            "replication_factor": self.replication_factor,
            "wal_dir": self.wal_dir,
            "recoveries": self._recoveries,
            "down_shards": self.down_shards(),
            "health": self.shard_status(),
            "faults": (
                self._injector.snapshot()
                if self._injector is not None
                else None
            ),
        }
        return stats
