"""Fault-tolerant sharded serving: replication, failover, degradation.

:class:`FaultTolerantMotionService` extends
:class:`~repro.service.service.ShardedMotionService` with the fault
model of distributed moving-object systems (MOIST-style checkpointed
workers; distributed continuous-range-query processing over fallible
nodes).  It re-implements no verb: the base class writes every one
against three seams, and this class overrides the seams —
``replica_group``; the guarded shard access (``_touch``,
``_apply_write``, ``_apply_sub_batch``, ``_answerable``); and the
``_log`` / ``_degrade`` pair — plus the health-gated batch front doors
and the kill / recover / restore administration:

* **Replication** — every object lives on ``replication_factor``
  consecutive shards: primary ``p = route(oid)`` plus replicas
  ``(p+1) % k, ...``.  Writes go to every *live* member of the group
  (write-all-live); a write succeeds iff at least one replica applied
  it.  A healthy write batch reaches each shard as the base class's
  does — one grouped ``MotionDatabase.apply_batch`` — then one log
  commit; only the degraded fallback walks the scalar verbs.  The
  catalog additionally remembers each object's authoritative motion,
  which is what recovery reconciles against.
* **Fault handling** — every shard touch runs through a bounded
  :class:`~repro.service.health.RetryPolicy` (transient injected
  faults back off and retry).  A crash-kind fault marks the shard
  *down*; a write that exhausts its retries also marks the shard down
  (a shard that missed a write must not keep serving — it is stale
  until recovered).  A per-shard
  :class:`~repro.service.health.CircuitBreaker` guards the *query*
  path only: queries skip an open-circuit shard and let its replicas
  answer, while writes always attempt every live replica.
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
   replica applied the write, so it always describes a state that is
   durable somewhere.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    InjectedFaultError,
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
)
from repro.service.faults import FaultInjector
from repro.service.health import CircuitBreaker, RetryPolicy
from repro.service.metrics import MetricsRegistry, wal_event_recorder
from repro.service.service import (
    ShardedMotionService,
    ShardRouter,
    _check_write_ops,
    _no_hook,
    _step_record,
)
from repro.service.sharding import BandRouter
from repro.service.wal import ShardWAL
from repro.storage.backend import FileWALBackend
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
    WriteOp,
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
    breaker: CircuitBreaker
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
        before every shard touch (chaos testing); ``None`` disables
        injection entirely.
    retry:
        :class:`~repro.service.health.RetryPolicy` for transient
        faults.
    checkpoint_every:
        WAL records between automatic per-shard checkpoints.
    breaker_threshold / breaker_reset_s:
        Per-shard circuit-breaker tuning (query path).
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
        retry: Optional[RetryPolicy] = None,
        checkpoint_every: int = 64,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 0.05,
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
        self._retry = retry or RetryPolicy()
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
            return ShardWAL(
                checkpoint_every=checkpoint_every,
                backend=backend,
                on_event=recorder,
            )

        self._nodes = [
            _ShardNode(
                shard_id=i,
                wal=build_wal(i),
                breaker=CircuitBreaker(
                    failure_threshold=breaker_threshold,
                    reset_after_s=breaker_reset_s,
                ),
            )
            for i in range(shards)
        ]
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
                "breaker": node.breaker.snapshot(),
                "wal": node.wal.snapshot(),
            }
            for node in self._nodes
        ]

    # -- guarded shard access --------------------------------------------------

    def _touch(self, shard: int, op_name: str, fn: Callable[[MotionDatabase], object],
               span, write: bool) -> object:
        """One guarded shard access: injection, retry, breaker, I/O span.

        Raises :class:`ShardUnavailableError` when the shard cannot
        serve (injected crash, or transient faults exhausted retries);
        for writes both cases mark the shard down — a shard that
        missed a write is stale and must recover before serving
        again.  Application-level rejections (``InvalidMotionError``
        etc.) propagate unchanged.
        """
        node = self._nodes[shard]
        if not node.up:
            raise ShardUnavailableError(
                f"shard {shard} is down ({node.down_reason})"
            )
        db = self._shards[shard]

        def attempt() -> object:
            if self._injector is not None:
                self._injector.on_op(shard, op_name)
            return fn(db)

        before = db.io_snapshot()
        try:
            value = self._retry.run(attempt)
        except InjectedFaultError as exc:
            span.add_shard_io(shard, db.io_delta_since(before))
            if exc.kind == "crash":
                node.mark_down(f"injected crash during {op_name}")
            else:
                node.breaker.record_failure()
                if write:
                    node.mark_down(
                        f"transient faults exhausted retries during "
                        f"{op_name}"
                    )
            raise ShardUnavailableError(
                f"shard {shard} failed {op_name}: {exc}"
            ) from exc
        span.add_shard_io(shard, db.io_delta_since(before))
        node.breaker.record_success()
        return value

    def _apply_write(self, shard: int, op_name: str, fn, span,
                     record_kind: str, record_fields: Dict) -> bool:
        """Apply one write to one shard; ``True`` iff it landed.

        Skips shards that are already down; on success appends the WAL
        record (append-after-apply) and maybe checkpoints.
        """
        if not self._nodes[shard].up:
            return False
        try:
            self._touch(shard, op_name, fn, span, write=True)
        except ShardUnavailableError:
            return False
        node = self._nodes[shard]
        node.wal.append(record_kind, **record_fields)
        node.wal.maybe_checkpoint(self._shards[shard])
        return True

    def _log(self, shard: int, kind: str, **fields: object) -> bool:
        """Append a protocol marker to a live shard's WAL."""
        node = self._nodes[shard]
        if node.up:
            node.wal.append(kind, **fields)
        return node.up

    def _answerable(self, shard: int) -> bool:
        """Queries skip a down shard and an open circuit."""
        node = self._nodes[shard]
        return node.up and node.breaker.allow()

    # -- updates ----------------------------------------------------------------

    def _commit_write(self, oid, owner, event) -> None:
        """Catalog commit, plus the authoritative motion recovery
        reconciles against."""
        super()._commit_write(oid, owner, event)
        motion = event[2]
        if motion is None:
            self._catalog_motion.pop(oid, None)
        else:
            self._catalog_motion[oid] = motion

    def _current_motion(self, oid: int, shard: int) -> LinearMotion1D:
        """From the catalog: well-defined even while ``shard`` is down."""
        with self._catalog_lock:
            return self._catalog_motion[oid]

    def apply_batch(
        self,
        ops: List[WriteOp],
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> List[Optional[Exception]]:
        """Batched writes with the grouped-WAL fast path while healthy.

        With no fault injector armed and every shard up, the whole
        batch runs under all shard locks in one pass
        (:meth:`ShardedMotionService.apply_batch`: same placement plan
        as the scalar writes, including fenced migration double-writes):
        each touched shard absorbs its planned sub-ops through **one**
        grouped :meth:`MotionDatabase.apply_batch` — the index's
        leaf-at-a-time path, exactly as on the plain service — then
        gets **one** grouped log append, **one** ``sync()`` (one fsync
        under ``batch:N`` policies), and at most one checkpoint
        (:meth:`_apply_sub_batch`) — and the update listeners fire
        **once** for the batch, events in submission order.  Per-op
        rejections come back in the returned list (``None`` = applied).

        With an injector armed or any shard down, every op takes the
        scalar write path — full retry/breaker/mark-down machinery —
        and :class:`~repro.errors.ShardUnavailableError` joins the
        contained outcome types, so chaos runs behave per-op exactly
        like a scalar soak.

        ``crash_hook`` fires ``write_batch.pre_fsync`` after a shard's
        grouped records are appended but before its ``sync()`` — the
        window where a crash with page-cache loss must recover an
        all-or-prefix cut of that shard's sub-batch.

        Crash atomicity is per shard and per object (all-or-prefix of
        each shard's record stream), not a global cut across shards:
        replicas of one group may retain different committed prefixes,
        exactly as under relaxed fsync policies, and
        :meth:`restore_from_disk` reconciles them by newest-motion
        election.
        """
        if self._injector is None:
            # kill_shard needs the shard's lock, so with all of them
            # held the health check cannot be raced.
            with self._holding(range(self.shard_count)):
                if not self.down_shards():
                    return super().apply_batch(ops, crash_hook)
        return self._apply_batch_degraded(ops)

    def _apply_sub_batch(self, shard, sub_ops, fences, span, hook) -> None:
        """The base's one grouped :meth:`MotionDatabase.apply_batch`,
        then one grouped WAL commit: append, ``write_batch.pre_fsync``
        (here the log sits where the base only fires the hook), sync
        and at most one checkpoint."""
        super()._apply_sub_batch(shard, sub_ops, fences, span, _no_hook)
        wal = self._nodes[shard].wal
        wal.append_batch(list(map(_step_record, sub_ops, fences)))
        hook("write_batch.pre_fsync")
        wal.sync()
        wal.maybe_checkpoint(self._shards[shard])

    def _apply_batch_degraded(
        self, ops: List[WriteOp]
    ) -> List[Optional[Exception]]:
        """Per-op scalar fallback with full fault machinery.

        Each op runs the scalar write (retry, breaker, mark-down,
        per-op WAL append and listener fire) so a chaos run through the
        batch API behaves byte-identically to the same ops issued one
        by one; rejections and unavailability land in the outcome list
        instead of raising.
        """
        _check_write_ops(ops)
        outcomes: List[Optional[Exception]] = []
        for op in ops:
            try:
                self._write(op)
                outcomes.append(None)
            except (
                ShardUnavailableError,
                ObjectNotFoundError,
                InvalidMotionError,
            ) as exc:
                outcomes.append(exc)
        return outcomes

    # -- queries ----------------------------------------------------------------

    def _uncovered(self, answered: Set[int]) -> Tuple[int, ...]:
        """Primaries whose whole replica group went unanswered (and
        that actually own objects — an empty dead group is no loss)."""
        with self._catalog_lock:
            primaries = set(self._owner.values())
        return tuple(
            sorted(
                p
                for p in primaries
                if not (set(self.replica_group(p)) & answered)
            )
        )

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
            stacklevel=3,
        )
        return PartialResult(value=value, unavailable_shards=unavailable)

    def query_batch(self, ops: List[QueryOp]) -> List:
        """Batch reads with the base fast path only while fully healthy.

        With no fault injector armed and every shard up, the base
        implementation (one kernel invocation per shard, result cache
        in front) is used as-is — its keyed k-NN merge already
        collapses replica duplicates.  Otherwise each operation takes
        the scalar query path, which carries the full fault machinery
        (retries, breakers, failover, :class:`PartialResult`
        degradation); degraded answers bypass the result cache so a
        partial answer is never replayed after recovery.

        A concurrent :meth:`kill_shard` can land *mid*-fast-path, in
        which case the just-computed answers may include reads from a
        shard already marked down.  Two guards keep the documented
        cache property — degraded answers never reach the result
        cache — intact: ``kill_shard`` bumps the cache's generation
        floor, so every put in flight at the kill is discarded rather
        than stored; and health is re-checked after the fast path
        returns, falling back to the per-operation degraded path (with
        its :class:`PartialResult` accounting) when it changed.  A
        kill that lands strictly after the re-check only invalidates
        answers that were computed wholly while the shard was still
        up, which is a legal pre-crash linearization.  (The injector
        is fixed at construction, so only shard health can change
        mid-batch.)
        """
        if self._injector is None and not self.down_shards():
            results = super().query_batch(ops)
            if not self.down_shards():
                return results
        results = []
        for op in ops:
            if isinstance(op, Within):
                results.append(self.within(op.y1, op.y2, op.t1, op.t2))
            elif isinstance(op, SnapshotAt):
                results.append(self.snapshot_at(op.y1, op.y2, op.t))
            elif isinstance(op, Nearest):
                results.append(self.nearest(op.y, op.t, op.k))
            elif isinstance(op, ProximityPairs):
                results.append(self.proximity_pairs(op.d, op.t1, op.t2))
            else:
                raise TypeError(f"unknown query operation {op!r}")
        return results

    # -- failure administration --------------------------------------------------

    def _handle_worker_death(self, shards: List[int]) -> bool:
        """A pool worker died mid-batch: treat its shards as crashed.

        Routes the loss through the *existing* failure machinery
        instead of recomputing inline: each lost lane's shard is
        marked down (cache generation floored, exactly like an
        operator :meth:`kill_shard`), and returning ``False`` tells
        the base fan-out to fill placeholders — the fast path's
        post-batch health re-check then discards the whole batch and
        re-answers it on the degraded per-operation path, surfacing
        :class:`~repro.service.faults.PartialResult` where coverage
        was genuinely lost.  :meth:`recover_shard` brings the shard
        back exactly as after any other crash.
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
            replayed = len(node.wal.tail())
            with self._catalog_lock:
                expected = {
                    oid: self._catalog_motion[oid]
                    for oid, primary in self._owner.items()
                    if shard in self.replica_group(primary)
                }
                # A migration destination legitimately holds a copy
                # the owner map does not describe yet; dropping it
                # here would undo the copy phase mid-flight.
                for state in self._ownership.migrations().values():
                    if (
                        shard in self.replica_group(state.dest)
                        and state.oid in self._catalog_motion
                    ):
                        expected[state.oid] = self._catalog_motion[
                            state.oid
                        ]
            current = {obj.oid: obj.motion for obj in db.objects()}
            dropped = repaired = 0
            for oid in sorted(set(current) - set(expected)):
                db.deregister(oid)
                dropped += 1
            for oid in sorted(set(expected) - set(current)):
                m = expected[oid]
                db.register(oid, m.y0, m.v, m.t0)
                repaired += 1
            for oid in sorted(set(expected) & set(current)):
                m, c = expected[oid], current[oid]
                if (m.y0, m.v, m.t0) != (c.y0, c.v, c.t0):
                    db.report(oid, m.y0, m.v, m.t0)
                    repaired += 1
            node.wal.checkpoint(db)
            self._retire_database(self._shards[shard])
            self._shards[shard] = db
            node.breaker.reset()
            node.mark_up()
            if self._injector is not None:
                self._injector.clear_crash(shard)
            self._recoveries += 1
        return {
            "shard": shard,
            "replayed": replayed,
            "reconciled": repaired,
            "dropped": dropped,
            "objects": len(db),
        }

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
                    "replayed": len(node.wal.tail()),
                    "objects": len(db),
                })
            # Reinstall the newest band layout any shard's log
            # retained *before* electing owners, so re-routing uses
            # the same cut the pre-crash service did.  In-flight
            # migrations need no per-object resolution: the election
            # below lands every object on exactly the group the
            # restored router names (the copy phase double-wrote
            # identical motions to both sides), which is precisely
            # "complete or abort cleanly".
            bands: Optional[Dict] = None
            fence_floor = 0
            migrations_resolved: Set[int] = set()
            for node in self._nodes:
                record = node.wal.bands_record()
                if record is not None and (
                    bands is None
                    or int(record.get("epoch", 0))
                    > int(bands.get("epoch", 0))
                ):
                    bands = record
                for oid, rec in node.wal.inflight_migrations().items():
                    migrations_resolved.add(oid)
                    fence_floor = max(
                        fence_floor, int(rec.get("epoch", 0))
                    )
            if bands is not None and isinstance(self.router, BandRouter):
                epoch = int(bands["epoch"])
                if epoch > self.router.epoch:
                    self.router.set_bands(bands["edges"], epoch)
            with self._catalog_lock:
                self._ownership.observe_epoch(fence_floor)
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
                shard = node.shard_id
                expected = {
                    oid: elected[oid]
                    for oid, primary in owners.items()
                    if shard in self.replica_group(primary)
                }
                current = db.motion_snapshot()
                for oid in sorted(set(current) - set(expected)):
                    db.deregister(oid)
                    dropped += 1
                for oid in sorted(set(expected) - set(current)):
                    m = expected[oid]
                    db.register(oid, m.y0, m.v, m.t0)
                    repaired += 1
                for oid in sorted(set(expected) & set(current)):
                    m, c = expected[oid], current[oid]
                    if (m.y0, m.v, m.t0) != (c.y0, c.v, c.t0):
                        db.report(oid, m.y0, m.v, m.t0)
                        repaired += 1
                node.wal.checkpoint(db)
                self._retire_database(self._shards[shard])
                self._shards[shard] = db
                node.breaker.reset()
                node.mark_up()
            with self._catalog_lock:
                self._owner.update(owners)
                self._catalog_motion.update(elected)
            for oid in sorted(elected):
                self._notify_update("insert", oid, elected[oid])
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
            "migrations_resolved": len(migrations_resolved),
        }

    def close(self) -> None:
        """Release durable-backend resources (log file handles) and
        the parallel tier (owned pool + shared segments)."""
        for node in self._nodes:
            node.wal.close()
        super().close()

    # -- accounting --------------------------------------------------------------

    def service_stats(self) -> Dict[str, object]:
        """Base snapshot plus the fault-tolerance view (health, WAL,
        breaker and injected-fault accounting)."""
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
