"""Fault-tolerant sharded serving: replication, failover, degradation.

:class:`FaultTolerantMotionService` extends
:class:`~repro.service.service.ShardedMotionService` with the fault
model of distributed moving-object systems (MOIST-style checkpointed
workers; distributed continuous-range-query processing over fallible
nodes):

* **Replication** — every object lives on ``replication_factor``
  consecutive shards: primary ``p = route(oid)`` plus replicas
  ``(p+1) % k, ...``.  Writes go to every *live* member of the group
  (write-all-live); a write succeeds iff at least one replica applied
  it.  The catalog additionally remembers each object's authoritative
  motion, which is what recovery reconciles against.
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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    InjectedFaultError,
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
    SimulatedCrashError,
    StaleMigrationError,
)
from repro.service.faults import FaultInjector
from repro.service.health import CircuitBreaker, RetryPolicy
from repro.service.metrics import MetricsRegistry, wal_event_recorder
from repro.service.service import ShardedMotionService, ShardRouter, _no_hook
from repro.service.sharding import BandRouter, MigrationState
from repro.service.wal import ShardWAL
from repro.storage.backend import FileWALBackend
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    ProximityPairs,
    QueryOp,
    RegisterOp,
    ReportOp,
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

    _group = replica_group

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

    @contextmanager
    def _holding(self, shards) -> Iterator[None]:
        held = sorted(set(shards))
        for shard in held:
            self._locks[shard].acquire()
        try:
            yield
        finally:
            for shard in reversed(held):
                self._locks[shard].release()

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

    # -- updates ----------------------------------------------------------------

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object to every live replica of its group."""
        with self.metrics.span("register") as span:
            motion = LinearMotion1D(y0, v, t0)
            primary = self.router.route(oid, motion)
            group = self.replica_group(primary)
            with self._catalog_lock:
                if oid in self._owner:
                    raise InvalidMotionError(
                        f"object {oid} is already registered; use report()"
                    )
                self._owner[oid] = primary
            try:
                with self._holding(group):
                    applied = 0
                    for shard in sorted(group):
                        if self._apply_write(
                            shard, "register",
                            lambda db: db.register(oid, y0, v, t0),
                            span, "insert",
                            {"oid": oid, "y0": y0, "v": v, "t0": t0},
                        ):
                            applied += 1
                    if applied == 0:
                        raise ShardUnavailableError(
                            f"register({oid}): no live replica in group "
                            f"{group}"
                        )
                    with self._catalog_lock:
                        self._catalog_motion[oid] = motion
                    self._notify_update("insert", oid, motion)
            except Exception:
                with self._catalog_lock:
                    self._owner.pop(oid, None)
                    self._catalog_motion.pop(oid, None)
                raise

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Motion update on every live replica, migrating groups when
        the router says so (the new group is written before the old
        copies are dropped, so a failure never loses the object)."""
        with self.metrics.span("report") as span:
            motion = LinearMotion1D(y0, v, t0)
            while True:
                with self._catalog_lock:
                    current = self._owner.get(oid)
                    migration = self._ownership.migration_of(oid)
                if current is None:
                    raise ObjectNotFoundError(
                        f"object {oid} is not registered"
                    )
                if migration is not None:
                    # Double-write window: placement comes from the
                    # ownership table (never recomputed from motion);
                    # the write lands on every live replica of both
                    # participants' groups, carrying the fencing epoch.
                    if self._report_migrating(
                        oid, y0, v, t0, motion, migration, span
                    ):
                        return
                    continue  # migration resolved under us; retry
                target = (
                    self.router.route(oid, motion)
                    if self.router.motion_sensitive
                    else current
                )
                old_group = set(self.replica_group(current))
                new_group = set(self.replica_group(target))
                with self._holding(old_group | new_group):
                    with self._catalog_lock:
                        if self._owner.get(oid) != current:
                            continue  # lost the race; retry with new owner
                    applied = 0
                    for shard in sorted(old_group & new_group):
                        if self._apply_write(
                            shard, "report",
                            lambda db: db.report(oid, y0, v, t0),
                            span, "update",
                            {"oid": oid, "y0": y0, "v": v, "t0": t0},
                        ):
                            applied += 1
                    for shard in sorted(new_group - old_group):
                        if self._apply_write(
                            shard, "report",
                            lambda db: db.register(oid, y0, v, t0),
                            span, "insert",
                            {"oid": oid, "y0": y0, "v": v, "t0": t0},
                        ):
                            applied += 1
                    if applied == 0:
                        raise ShardUnavailableError(
                            f"report({oid}): no live replica in "
                            f"{sorted(old_group | new_group)}"
                        )
                    for shard in sorted(old_group - new_group):
                        self._apply_write(
                            shard, "report",
                            lambda db: db.deregister(oid),
                            span, "delete", {"oid": oid},
                        )
                    with self._catalog_lock:
                        self._owner[oid] = target
                        self._catalog_motion[oid] = motion
                    self._notify_update("update", oid, motion)
                    return

    def _report_migrating(
        self, oid, y0, v, t0, motion, migration, span
    ) -> bool:
        """Fenced double-write to both participants' replica groups.

        Returns ``False`` (caller retries) when the fencing check
        fails: the migration resolved between the catalog read and the
        lock acquisition, and writing with the stale epoch could land
        an update on a shard that no longer holds the object.
        """
        src_group = set(self.replica_group(migration.source))
        dst_group = set(self.replica_group(migration.dest))
        with self._holding(src_group | dst_group):
            with self._catalog_lock:
                if not self._ownership.admits(oid, migration.epoch):
                    self.metrics.counter(
                        "rebalance_fenced_writes"
                    ).increment()
                    return False
            applied = 0
            for shard in sorted(src_group | dst_group):
                if self._apply_write(
                    shard, "report",
                    lambda db: db.report(oid, y0, v, t0),
                    span, "update",
                    {"oid": oid, "y0": y0, "v": v, "t0": t0,
                     "fence": migration.epoch},
                ):
                    applied += 1
            if applied == 0:
                raise ShardUnavailableError(
                    f"report({oid}): no live replica in "
                    f"{sorted(src_group | dst_group)}"
                )
            with self._catalog_lock:
                self._catalog_motion[oid] = motion
            self.metrics.counter("rebalance_double_writes").increment()
            self._notify_update("update", oid, motion)
            return True

    def deregister(self, oid: int) -> None:
        """Remove an object from every live replica of its group —
        both groups, when a migration is in flight."""
        with self.metrics.span("deregister") as span:
            while True:
                with self._catalog_lock:
                    primary = self._owner.get(oid)
                    migration = self._ownership.migration_of(oid)
                if primary is None:
                    raise ObjectNotFoundError(
                        f"object {oid} is not registered"
                    )
                group = set(self.replica_group(primary))
                if migration is not None:
                    group |= set(self.replica_group(migration.dest))
                with self._holding(group):
                    with self._catalog_lock:
                        if (
                            self._owner.get(oid) != primary
                            or self._ownership.migration_of(oid)
                            != migration
                        ):
                            continue  # placement changed; retry
                    applied = 0
                    for shard in sorted(group):
                        if oid not in self._shards[shard]:
                            continue  # copy never landed on this shard
                        if self._apply_write(
                            shard, "deregister",
                            lambda db: db.deregister(oid),
                            span, "delete", {"oid": oid},
                        ):
                            applied += 1
                    if applied == 0:
                        raise ShardUnavailableError(
                            f"deregister({oid}): no live replica in "
                            f"group {sorted(group)}"
                        )
                    with self._catalog_lock:
                        self._ownership.drop(oid)
                        self._catalog_motion.pop(oid, None)
                    self._notify_update("delete", oid, None)
                    return

    # -- batched writes ----------------------------------------------------------

    def apply_batch(
        self,
        ops: List[WriteOp],
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> List[Optional[Exception]]:
        """Batched writes with the grouped-WAL fast path while healthy.

        With no fault injector armed and every shard up, the whole
        batch runs under all shard locks in one pass: each op applies
        to every replica of its group directly (same placement logic
        as the scalar writes, including fenced migration double-writes)
        while its WAL records accumulate per shard; then each touched
        shard gets **one** grouped log append, **one** ``sync()`` (one
        fsync under ``batch:N`` policies), and at most one checkpoint —
        and the update listeners fire **once** for the batch, events in
        submission order.  Per-op rejections come back in the returned
        list (``None`` = applied), exactly like
        :meth:`ShardedMotionService.apply_batch`.

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
        for op in ops:
            if not isinstance(op, (RegisterOp, ReportOp, DeregisterOp)):
                raise TypeError(f"unknown write operation {op!r}")
        if self._injector is not None or self.down_shards():
            return self._apply_batch_degraded(ops)
        hook = crash_hook or _no_hook
        outcomes: List[Optional[Exception]] = [None] * len(ops)
        events: List[Tuple[str, int, Optional[LinearMotion1D]]] = []
        pending: Dict[int, List[Tuple[str, Dict]]] = {}
        degraded = False
        with self.metrics.span("apply_batch") as span:
            with self._holding(range(self.shard_count)):
                if self.down_shards():
                    degraded = True  # kill raced the health check
                else:
                    befores = [db.io_snapshot() for db in self._shards]
                    for i, op in enumerate(ops):
                        try:
                            self._apply_one_replicated(op, events, pending)
                        except (
                            InvalidMotionError,
                            ObjectNotFoundError,
                        ) as exc:
                            outcomes[i] = exc
                    for shard, db in enumerate(self._shards):
                        span.add_shard_io(
                            shard, db.io_delta_since(befores[shard])
                        )
                    for shard in sorted(pending):
                        node = self._nodes[shard]
                        node.wal.append_batch(pending[shard])
                        hook("write_batch.pre_fsync")
                        node.wal.sync()
                        node.wal.maybe_checkpoint(self._shards[shard])
                    self._notify_update_batch(events)
        if degraded:
            return self._apply_batch_degraded(ops)
        return outcomes

    def _apply_one_replicated(
        self,
        op: WriteOp,
        events: List,
        pending: Dict[int, List],
    ) -> None:
        """Fast-path apply of one write to every replica of its group.

        Caller holds all shard locks and guarantees every shard is up
        and no injector is armed, so the scalar path's retry /
        mark-down machinery is unnecessary; placement and record kinds
        mirror :meth:`register` / :meth:`report` / :meth:`deregister`
        exactly.  WAL records accumulate in ``pending`` for the
        caller's grouped append.
        """
        def record(shard: int, kind: str, fields: Dict) -> None:
            pending.setdefault(shard, []).append((kind, fields))

        if isinstance(op, RegisterOp):
            motion = LinearMotion1D(op.y0, op.v, op.t0)
            with self._catalog_lock:
                duplicate = op.oid in self._owner
            if duplicate:
                raise InvalidMotionError(
                    f"object {op.oid} is already registered; use report()"
                )
            self._model.check_admissible(motion)
            primary = self.router.route(op.oid, motion)
            for shard in sorted(self.replica_group(primary)):
                self._shards[shard].register(op.oid, op.y0, op.v, op.t0)
                record(shard, "insert", {
                    "oid": op.oid, "y0": op.y0, "v": op.v, "t0": op.t0,
                })
            with self._catalog_lock:
                self._owner[op.oid] = primary
                self._catalog_motion[op.oid] = motion
            events.append(("insert", op.oid, motion))
            return

        if isinstance(op, ReportOp):
            motion = LinearMotion1D(op.y0, op.v, op.t0)
            with self._catalog_lock:
                current = self._owner.get(op.oid)
                migration = self._ownership.migration_of(op.oid)
            if current is None:
                raise ObjectNotFoundError(
                    f"object {op.oid} is not registered"
                )
            self._model.check_admissible(motion)
            if migration is not None:
                # Fenced double-write; the epoch cannot go stale under
                # us because commit/abort needs shard locks we hold.
                union = set(self.replica_group(migration.source)) | set(
                    self.replica_group(migration.dest)
                )
                for shard in sorted(union):
                    self._shards[shard].report(op.oid, op.y0, op.v, op.t0)
                    record(shard, "update", {
                        "oid": op.oid, "y0": op.y0, "v": op.v,
                        "t0": op.t0, "fence": migration.epoch,
                    })
                with self._catalog_lock:
                    self._catalog_motion[op.oid] = motion
                self.metrics.counter("rebalance_double_writes").increment()
                events.append(("update", op.oid, motion))
                return
            target = (
                self.router.route(op.oid, motion)
                if self.router.motion_sensitive
                else current
            )
            old_group = set(self.replica_group(current))
            new_group = set(self.replica_group(target))
            for shard in sorted(old_group & new_group):
                self._shards[shard].report(op.oid, op.y0, op.v, op.t0)
                record(shard, "update", {
                    "oid": op.oid, "y0": op.y0, "v": op.v, "t0": op.t0,
                })
            for shard in sorted(new_group - old_group):
                self._shards[shard].register(op.oid, op.y0, op.v, op.t0)
                record(shard, "insert", {
                    "oid": op.oid, "y0": op.y0, "v": op.v, "t0": op.t0,
                })
            for shard in sorted(old_group - new_group):
                self._shards[shard].deregister(op.oid)
                record(shard, "delete", {"oid": op.oid})
            with self._catalog_lock:
                self._owner[op.oid] = target
                self._catalog_motion[op.oid] = motion
            events.append(("update", op.oid, motion))
            return

        with self._catalog_lock:
            primary = self._owner.get(op.oid)
            migration = self._ownership.migration_of(op.oid)
        if primary is None:
            raise ObjectNotFoundError(
                f"object {op.oid} is not registered"
            )
        group = set(self.replica_group(primary))
        if migration is not None:
            group |= set(self.replica_group(migration.dest))
        for shard in sorted(group):
            if op.oid not in self._shards[shard]:
                continue  # copy never landed on this shard
            self._shards[shard].deregister(op.oid)
            record(shard, "delete", {"oid": op.oid})
        with self._catalog_lock:
            self._ownership.drop(op.oid)
            self._catalog_motion.pop(op.oid, None)
        events.append(("delete", op.oid, None))

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
        outcomes: List[Optional[Exception]] = []
        for op in ops:
            try:
                if isinstance(op, RegisterOp):
                    self.register(op.oid, op.y0, op.v, op.t0)
                elif isinstance(op, ReportOp):
                    self.report(op.oid, op.y0, op.v, op.t0)
                else:
                    self.deregister(op.oid)
                outcomes.append(None)
            except (
                ShardUnavailableError,
                ObjectNotFoundError,
                InvalidMotionError,
            ) as exc:
                outcomes.append(exc)
        return outcomes

    def location_of(self, oid: int, t: float) -> float:
        """Point lookup with replica failover."""
        with self._catalog_lock:
            primary = self._owner.get(oid)
        if primary is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        with self.metrics.span("location_of") as span:
            for shard in self.replica_group(primary):
                if not self._nodes[shard].up:
                    continue
                with self._locks[shard]:
                    try:
                        return self._touch(
                            shard, "location_of",
                            lambda db: db.location_of(oid, t),
                            span, write=False,
                        )
                    except ShardUnavailableError:
                        continue
            raise ShardUnavailableError(
                f"object {oid}: no live replica in group "
                f"{self.replica_group(primary)}"
            )

    # -- live rebalancing (durable two-phase migration) --------------------------

    def set_bands(self, edges) -> int:
        """Install a new band layout and log it to every live shard.

        The epoch-numbered ``bands`` record is what lets
        :meth:`restore_from_disk` re-elect owners with the same cut
        the pre-crash service used — any one surviving shard's log is
        enough.
        """
        if not isinstance(self.router, BandRouter):
            raise ValueError(
                f"router {getattr(self.router, 'name', self.router)!r} "
                f"has no mutable bands; use router='velocity' or a "
                f"BandRouter"
            )
        with self._holding(range(self.shard_count)):
            with self._catalog_lock:
                epoch = self.router.epoch + 1
                self.router.set_bands(edges, epoch)
                self.metrics.counter("rebalance_band_updates").increment()
            layout = list(self.router.band_edges())
            for node in self._nodes:
                if node.up:
                    node.wal.append("bands", edges=layout, epoch=epoch)
        return epoch

    def begin_migration(
        self,
        oid: int,
        dest: int,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> MigrationState:
        """Copy phase across replica groups.

        Destination-group shards outside the source group receive the
        snapshot (``migrate_in`` records, motion + §7 history); the
        source primary logs a ``migrate_begin`` marker.  If no new
        destination copy can land (the whole destination side is
        down), the copy rolls back and :class:`ShardUnavailableError`
        surfaces for the controller's abort accounting.
        """
        if not 0 <= dest < self.shard_count:
            raise ValueError(f"destination shard {dest} out of range")
        hook = crash_hook or _no_hook
        with self.metrics.span("migrate_begin") as span:
            with self._catalog_lock:
                source = self._owner.get(oid)
                motion = self._catalog_motion.get(oid)
            if source is None or motion is None:
                raise ObjectNotFoundError(f"object {oid} is not registered")
            src_group = set(self.replica_group(source))
            dst_group = set(self.replica_group(dest))
            with self._holding(src_group | dst_group):
                with self._catalog_lock:
                    if self._owner.get(oid) != source:
                        raise StaleMigrationError(
                            f"object {oid} moved off shard {source} "
                            f"before migration could begin"
                        )
                    state = self._ownership.begin_migration(
                        oid, source, dest
                    )
                try:
                    new_shards = sorted(dst_group - src_group)
                    applied = 0
                    for shard in new_shards:
                        if self._apply_write(
                            shard, "migrate_in",
                            lambda db: self._install_copy(
                                db, source, oid, motion
                            ),
                            span, "migrate_in",
                            {"oid": oid, "y0": motion.y0, "v": motion.v,
                             "t0": motion.t0, "epoch": state.epoch,
                             "source": source},
                        ):
                            applied += 1
                    if new_shards and applied == 0:
                        raise ShardUnavailableError(
                            f"migrate({oid}): no live destination in "
                            f"group {sorted(dst_group)}"
                        )
                    src_node = self._nodes[source]
                    if src_node.up:
                        src_node.wal.append(
                            "migrate_begin", oid=oid, epoch=state.epoch,
                            dest=dest,
                        )
                    hook("rebalance.copy_sent")
                except SimulatedCrashError:
                    raise
                except Exception:
                    self._rollback_copy(state, span)
                    raise
                return state

    def _install_copy(
        self, db: MotionDatabase, source: int, oid: int,
        motion: LinearMotion1D,
    ) -> None:
        """Apply one destination-side copy: register + §7 archive."""
        db.register(oid, motion.y0, motion.v, motion.t0)
        src_db = self._shards[source]
        if db.history_enabled and src_db.history_enabled:
            versions = src_db.history_of(oid)
            if versions:
                db.restore_history(versions)

    def _rollback_copy(self, state: MigrationState, span) -> None:
        """Undo a failed copy phase: drop landed destination copies,
        log the abort, release the fencing state.  Best-effort on
        purpose — dead shards are reconciled at recovery instead."""
        dst_only = sorted(
            set(self.replica_group(state.dest))
            - set(self.replica_group(state.source))
        )
        for shard in dst_only:
            if state.oid in self._shards[shard]:
                self._apply_write(
                    shard, "migrate_abort",
                    lambda db: db.deregister(state.oid),
                    span, "migrate_abort",
                    {"oid": state.oid, "epoch": state.epoch,
                     "role": "dest"},
                )
        src_node = self._nodes[state.source]
        if src_node.up:
            src_node.wal.append(
                "migrate_abort", oid=state.oid, epoch=state.epoch,
                role="source",
            )
        with self._catalog_lock:
            try:
                self._ownership.abort_migration(state)
            except StaleMigrationError:
                pass

    def commit_migration(
        self,
        state: MigrationState,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Durable cutover: the fenced, epoch-numbered
        ``migrate_commit`` record lands on *both* participants' WALs
        (destination first — its presence is what recovery treats as
        the commit decision), then the source side physically drops
        its copies under ``migrate_out`` records.
        """
        hook = crash_hook or _no_hook
        with self.metrics.span("migrate_commit") as span:
            src_group = set(self.replica_group(state.source))
            dst_group = set(self.replica_group(state.dest))
            with self._holding(src_group | dst_group):
                with self._catalog_lock:
                    if not self._ownership.admits(state.oid, state.epoch):
                        raise StaleMigrationError(
                            f"cutover of {state} rejected: epoch is stale"
                        )
                dst_node = self._nodes[state.dest]
                if not dst_node.up:
                    raise ShardUnavailableError(
                        f"migrate({state.oid}): destination shard "
                        f"{state.dest} died before cutover"
                    )
                hook("rebalance.pre_commit")
                dst_node.wal.append(
                    "migrate_commit", oid=state.oid, epoch=state.epoch,
                    role="dest", source=state.source,
                )
                hook("rebalance.between_commits")
                src_node = self._nodes[state.source]
                if src_node.up:
                    src_node.wal.append(
                        "migrate_commit", oid=state.oid,
                        epoch=state.epoch, role="source",
                        dest=state.dest,
                    )
                for shard in sorted(src_group - dst_group):
                    self._apply_write(
                        shard, "migrate_out",
                        lambda db: db.deregister(state.oid),
                        span, "migrate_out",
                        {"oid": state.oid, "epoch": state.epoch,
                         "dest": state.dest},
                    )
                hook("rebalance.post_commit")
                with self._catalog_lock:
                    self._ownership.commit_migration(state)

    def abort_migration(self, state: MigrationState) -> None:
        """Fenced abort: destination copies are dropped (with
        ``migrate_abort`` records), the source keeps serving."""
        with self.metrics.span("migrate_abort") as span:
            src_group = set(self.replica_group(state.source))
            dst_group = set(self.replica_group(state.dest))
            with self._holding(src_group | dst_group):
                with self._catalog_lock:
                    if not self._ownership.admits(state.oid, state.epoch):
                        raise StaleMigrationError(
                            f"abort of {state} rejected: epoch is stale"
                        )
                self._rollback_copy(state, span)

    # -- queries ----------------------------------------------------------------

    def _fanout_union(self, name: str, fn, span) -> Tuple[Set, Set[int]]:
        """Union a per-shard set query over every answerable shard."""
        result: Set = set()
        answered: Set[int] = set()
        for shard in range(self.shard_count):
            node = self._nodes[shard]
            if not node.up or not node.breaker.allow():
                continue
            with self._locks[shard]:
                try:
                    part = self._touch(shard, name, fn, span, write=False)
                except ShardUnavailableError:
                    continue
            result |= part
            answered.add(shard)
        return result, answered

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

    def within(self, y1, y2, t1, t2):
        with self.metrics.span("within") as span:
            result, answered = self._fanout_union(
                "within", lambda db: db.within(y1, y2, t1, t2), span
            )
            return self._degrade("within", result, answered)

    def snapshot_at(self, y1, y2, t):
        with self.metrics.span("snapshot_at") as span:
            result, answered = self._fanout_union(
                "snapshot_at", lambda db: db.snapshot_at(y1, y2, t), span
            )
            return self._degrade("snapshot_at", result, answered)

    def query_past(self, y1, y2, t1, t2):
        with self.metrics.span("query_past") as span:
            result, answered = self._fanout_union(
                "query_past", lambda db: db.query_past(y1, y2, t1, t2), span
            )
            return self._degrade("query_past", result, answered)

    def nearest(self, y, t, k=1):
        """Global k-NN over reachable replicas; duplicates from
        replication collapse by object id before the re-rank."""
        with self.metrics.span("nearest") as span:
            best: Dict[int, float] = {}
            answered: Set[int] = set()
            for shard in range(self.shard_count):
                node = self._nodes[shard]
                if not node.up or not node.breaker.allow():
                    continue
                with self._locks[shard]:
                    try:
                        part = self._touch(
                            shard, "nearest",
                            lambda db: db.nearest(y, t, k),
                            span, write=False,
                        )
                    except ShardUnavailableError:
                        continue
                for oid, dist in part:
                    best[oid] = dist
                answered.add(shard)
            ranked = sorted(best.items(), key=lambda p: (p[1], p[0]))[:k]
            return self._degrade("nearest", ranked, answered)

    def proximity_pairs(self, d, t1, t2):
        """All-pairs proximity over reachable shards.

        Every answerable shard is locked for the duration (one
        consistent cross-shard population); replica-induced duplicate
        pairs and self-pairs collapse during the merge.
        """
        with self.metrics.span("proximity_pairs") as span:
            candidates = [
                shard
                for shard in range(self.shard_count)
                if self._nodes[shard].up
                and self._nodes[shard].breaker.allow()
            ]
            with self._holding(candidates):
                answered: List[int] = []
                for shard in candidates:
                    try:
                        # The fault gate for this shard's whole share
                        # of the join (self-join + exchanges below).
                        self._touch(
                            shard, "proximity_pairs",
                            lambda db: None, span, write=False,
                        )
                    except ShardUnavailableError:
                        continue
                    answered.append(shard)
                pairs: Set[Tuple[int, int]] = set()
                for position, i in enumerate(answered):
                    shard_db = self._shards[i]
                    before = shard_db.io_snapshot()
                    pairs |= shard_db.proximity_pairs(d, t1, t2)
                    outer = shard_db.objects()
                    span.add_shard_io(i, shard_db.io_delta_since(before))
                    for j in answered[position + 1:]:
                        inner = self._shards[j]
                        before_j = inner.io_snapshot()
                        directed = inner.join_against(outer, d, t1, t2)
                        span.add_shard_io(j, inner.io_delta_since(before_j))
                        pairs |= {
                            (min(a, b), max(a, b))
                            for a, b in directed
                            if a != b
                        }
            return self._degrade("proximity_pairs", pairs, set(answered))

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
