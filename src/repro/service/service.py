"""A sharded, concurrent query service over :class:`MotionDatabase`.

One :class:`~repro.engine.MotionDatabase` serves one caller at a time.
:class:`ShardedMotionService` is the scaling layer the ROADMAP asks
for: the object population is partitioned across ``k`` independent
shards (each a full ``MotionDatabase`` with its own disks and
buffers), updates route to the owning shard under a per-shard lock,
and queries fan out and merge:

* ``within`` / ``snapshot_at`` / ``query_past`` — per-shard answers
  are disjoint (an object lives on exactly one shard), so the merge is
  a set union;
* ``nearest`` — each shard reports its own exact top-``k``; the
  candidates are re-ranked globally by ``(distance, oid)`` and cut to
  ``k``.  Ties at equal distance break toward the smaller object id,
  matching :func:`repro.extensions.neighbors.knn_at`;
* ``proximity_pairs`` — within-shard pairs come from each shard's own
  self-join; cross-shard pairs come from candidate exchange: shard
  ``i`` ships its population as the outer relation of a directed
  distance join against every shard ``j > i``
  (:meth:`MotionDatabase.join_against`), so every unordered pair is
  examined exactly once.

Concurrency model: a *catalog* lock guards the oid→shard ownership map
and is only ever taken innermost; each shard has a reentrant lock
taken in ascending shard order when an operation needs more than one
(motion-sensitive routing can migrate an object between shards on
update).  Queries lock one shard at a time, so readers of different
shards proceed in parallel with writers of others.  The paper's
time-moves-forward discipline holds per shard: each shard's ``now``
only advances.

Every write — scalar verb or batch — is placed by one function,
:meth:`ShardedMotionService._plan_write`, and every verb is written
once, here, against three seams whose forms in this class are trivial:
``replica_group`` (an object lives on its primary only), the guarded
shard access ``_touch`` / ``_apply_write`` / ``_apply_sub_batch``
(call the database, record the I/O), and the ``_log`` / ``_degrade``
pair (no log; answers are always complete).  This class is the
``replication = 1``, no-log, no-fault-guard case of
:class:`~repro.service.replication.FaultTolerantMotionService`, which
overrides exactly those seams.

Every public operation runs inside a metrics span; see
:meth:`service_stats` for the snapshot format.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.model import LinearMotion1D, MotionModel, Terrain1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
    SimulatedCrashError,
    StaleMigrationError,
)
from repro.indexes.base import MobileIndex1D
from repro.io_sim.stats import combine_snapshots
from repro.service.metrics import MetricsRegistry
from repro.service.parallel import WorkerCrashError, WorkerPool
from repro.service.sharding import (
    BandRouter,
    HashRouter,
    MigrationState,
    OwnershipTable,
    ShardRouter,
    VelocityRouter,
)
from repro.vector.cache import QueryResultCache, copy_result
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
    write_record,
)

#: Router factories selectable by name (``router="velocity"``).
ROUTER_FACTORIES: Dict[str, Callable[[int, float], ShardRouter]] = {
    "hash": lambda shards, v_max: HashRouter(shards),
    "velocity": lambda shards, v_max: VelocityRouter(shards, v_max),
    "band": lambda shards, v_max: BandRouter(shards, v_max),
}


#: What :meth:`ShardedMotionService._plan_write` returns: ``(claim,
#: steps, cleanup, owner, event)`` — see its docstring.  One step is
#: ``(shard, sub-op, fence)``; :func:`_step_record` is its log record.
_Step = Tuple[int, WriteOp, Optional[int]]
_WritePlan = Tuple[
    Tuple[Optional[int], Optional[MigrationState]],
    List[_Step],
    List[_Step],
    Optional[int],
    Tuple[str, int, Optional[LinearMotion1D]],
]

#: WriteOp class → the scalar verb (metrics span, fault-injection op
#: name) that applies it.
_VERBS: Dict[type, str] = {
    RegisterOp: "register",
    ReportOp: "report",
    DeregisterOp: "deregister",
}


def _no_hook(point: str) -> None:
    """Default (disarmed) crash-point hook."""


def _check_write_ops(ops: Sequence[WriteOp]) -> None:
    for op in ops:
        if type(op) not in _VERBS:
            raise TypeError(f"unknown write operation {op!r}")


def _step_record(sub_op: WriteOp, fence: Optional[int]) -> Tuple[str, Dict]:
    """The log record ``(kind, fields)`` of one planned step: the
    sub-op in the trace dialect, plus the fencing epoch when it is a
    double-write inside a migration window."""
    kind, fields = write_record(sub_op)
    if fence is not None:
        fields["fence"] = fence
    return kind, fields


def _apply_op(db: MotionDatabase, op: WriteOp) -> None:
    """One planned sub-op through the database's scalar verbs."""
    if isinstance(op, RegisterOp):
        db.register(op.oid, op.y0, op.v, op.t0)
    elif isinstance(op, ReportOp):
        db.report(op.oid, op.y0, op.v, op.t0)
    else:
        db.deregister(op.oid)


def _merge_nearest(
    parts: Iterable[List[Tuple[int, float]]], k: int
) -> List[Tuple[int, float]]:
    """Global top-``k`` from per-shard top-``k`` lists: keyed by oid
    (copies of one object collapse), ranked by ``(distance, oid)``."""
    best: Dict[int, float] = {}
    for part in parts:
        for oid, dist in part:
            best[oid] = dist
    return sorted(best.items(), key=lambda pair: (pair[1], pair[0]))[:k]


def _empty_answer(op: QueryOp):
    """The empty per-shard answer for one shardable operation.

    Used as a placeholder for lanes lost to a worker death when the
    fault-tolerant policy discards the batch anyway — an empty set /
    list merges as a no-op and can never invent an object.
    """
    return [] if isinstance(op, Nearest) else set()


class ShardedMotionService:
    """Hash- (or velocity-) partitioned motion database service.

    Parameters mirror :class:`MotionDatabase`, plus:

    shards:
        Number of independent shards (``k >= 1``).
    router:
        ``"hash"`` (default), ``"velocity"``, or a
        :class:`ShardRouter` instance.
    metrics:
        An existing :class:`MetricsRegistry` to record into; a fresh
        one is created when omitted.
    cache_capacity / cache_clock_bucket:
        Tuning for the memoizing :class:`QueryResultCache` consulted
        by :meth:`query_batch` (see that class for the keying and
        invalidation rules).  ``cache_capacity=0`` disables the cache.
    workers / pool:
        The multi-process execution tier.  ``workers=N`` (N >= 1)
        spawns a service-owned :class:`~repro.service.parallel.
        WorkerPool` of N processes; alternatively pass an existing
        ``pool`` to share one across services (the caller keeps
        ownership).  Either way each shard's columnar mirror moves
        into shared memory (:class:`~repro.vector.shm.
        SharedMotionColumns`) so workers read rows without pickling,
        and :meth:`query_batch` fans per-shard sub-batches over the
        pool.  ``workers=0`` (default) keeps the in-process path —
        pooled answers are byte-identical to it by construction
        (same :func:`~repro.vector.evaluate.evaluate_arrays`
        dispatch either way).
    """

    def __init__(
        self,
        y_max: float,
        v_min: float,
        v_max: float,
        shards: int = 4,
        method: str = "forest",
        index_factory: Optional[
            Callable[[MotionModel], MobileIndex1D]
        ] = None,
        keep_history: bool = False,
        router: str | ShardRouter = "hash",
        metrics: Optional[MetricsRegistry] = None,
        cache_capacity: int = 1024,
        cache_clock_bucket: Optional[float] = None,
        workers: int = 0,
        pool: Optional["WorkerPool"] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        if isinstance(router, ShardRouter):
            if router.shards != shards:
                raise ValueError(
                    f"router expects {router.shards} shards, service has "
                    f"{shards}"
                )
            self.router = router
        else:
            factory = ROUTER_FACTORIES.get(router)
            if factory is None:
                raise ValueError(
                    f"unknown router {router!r}; pick from "
                    f"{sorted(ROUTER_FACTORIES)} or pass a ShardRouter"
                )
            self.router = factory(shards, v_max)
        self.metrics = metrics or MetricsRegistry()
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._pool: Optional["WorkerPool"] = None
        self._owns_pool = False
        if pool is not None:
            self._pool = pool
        elif workers > 0:
            from repro.service.parallel import WorkerPool

            self._pool = WorkerPool(workers)
            self._owns_pool = True
        columns_factory = None
        if self._pool is not None:
            # Shard mirrors move into shared memory so pool workers
            # can attach them by name; contract and answers are
            # unchanged (SharedMotionColumns is a MotionColumns).
            from repro.vector import SharedMotionColumns

            columns_factory = SharedMotionColumns
        #: The shards' shared motion model: the admission test of the
        #: write paths (over-speed, off-terrain) runs against it before
        #: the catalog or any shard is touched.
        self._model = MotionModel(Terrain1D(y_max), v_min, v_max)
        self._db_params = {
            "y_max": y_max,
            "v_min": v_min,
            "v_max": v_max,
            "method": method,
            "index_factory": index_factory,
            "keep_history": keep_history,
            "columns_factory": columns_factory,
        }
        self._shards: List[MotionDatabase] = [
            self._build_database() for _ in range(shards)
        ]
        self._locks = [threading.RLock() for _ in range(shards)]
        self._catalog_lock = threading.RLock()
        # The ownership table is the catalog's routing half: the plain
        # owner dict plus in-flight two-phase migrations and their
        # fencing epochs.  `_owner` aliases the table's dict so every
        # pre-existing code path keeps its contract.
        self._ownership = OwnershipTable()
        self._owner: Dict[int, int] = self._ownership.owner
        self._update_listeners: List[
            Callable[[str, int, Optional[LinearMotion1D]], None]
        ] = []
        self.query_cache: Optional[QueryResultCache] = None
        if cache_capacity > 0:
            self.query_cache = QueryResultCache(
                metrics=self.metrics,
                capacity=cache_capacity,
                clock_bucket=cache_clock_bucket,
            )
            self.attach_update_listener(self.query_cache.on_update)

    def _build_database(self) -> MotionDatabase:
        """One shard-sized database, metrics listener attached.

        The single place shard databases come from: construction here
        and crash recovery in the fault-tolerant subclass both use it,
        so a rebuilt shard is configured identically to the original.
        """
        db = MotionDatabase(
            self._db_params["y_max"],
            self._db_params["v_min"],
            self._db_params["v_max"],
            method=self._db_params["method"],
            index_factory=self._db_params["index_factory"],
            keep_history=self._db_params["keep_history"],
            columns_factory=self._db_params["columns_factory"],
        )
        db.attach_io_listener(self.metrics.live_io)
        return db

    @staticmethod
    def _retire_database(db: Optional[MotionDatabase]) -> None:
        """Release a replaced shard database's shared-memory segments.

        A no-op for plain in-process mirrors; for shared columns this
        unlinks eagerly instead of waiting for GC/atexit, so crash
        drills that rebuild shards repeatedly don't pile up segments.
        """
        if db is None:
            return
        columns = getattr(db, "columns", None)
        close = getattr(columns, "close", None)
        if close is not None:
            close()

    # -- introspection ---------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def __len__(self) -> int:
        with self._catalog_lock:
            return len(self._owner)

    def __contains__(self, oid: int) -> bool:
        with self._catalog_lock:
            return oid in self._owner

    def shard_of(self, oid: int) -> int:
        """The shard currently owning ``oid``.

        This is the *ownership table* answer, never a route recompute:
        once registered, an object's placement is whatever the catalog
        says, and only a committed migration (inline on a
        speed-crossing report, or the rebalance controller's two-phase
        protocol) changes it.  While a migration is in flight this
        reports the source (ownership moves at cutover); use
        :meth:`owners_of` for the full residency set.
        """
        with self._catalog_lock:
            shard = self._owner.get(oid)
        if shard is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        return shard

    def owners_of(self, oid: int) -> Tuple[int, ...]:
        """Every shard holding ``oid`` right now: ``(owner,)`` in
        steady state, ``(source, dest)`` during a two-phase migration
        — the two-shard ownership set queries merge over."""
        with self._catalog_lock:
            return self._ownership.owners_of(oid)

    def migration_of(self, oid: int) -> Optional[MigrationState]:
        """The in-flight migration for ``oid``, or ``None``."""
        with self._catalog_lock:
            return self._ownership.migration_of(oid)

    def primary_counts(self) -> List[int]:
        """Objects per owning shard (the catalog view the rebalance
        controller's skew detector reads)."""
        counts = [0] * self.shard_count
        with self._catalog_lock:
            for shard in self._owner.values():
                counts[shard] += 1
        return counts

    def shard_populations(self) -> List[Set[int]]:
        """Per-shard resident oid sets (each shard locked in turn)."""
        populations = []
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                populations.append({obj.oid for obj in shard.objects()})
        return populations

    @property
    def now(self) -> float:
        """Latest update timestamp across all shards."""
        return max((shard.now for shard in self._shards), default=0.0)

    def shard_now(self) -> List[float]:
        """Each shard's own update clock (monotone per shard)."""
        return [shard.now for shard in self._shards]

    def motion_snapshot(self) -> Dict[int, LinearMotion1D]:
        """The full oid → motion map across shards (a fresh dict)."""
        snapshot: Dict[int, LinearMotion1D] = {}
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                snapshot.update(shard.motion_snapshot())
        return snapshot

    # -- update listeners --------------------------------------------------------

    def attach_update_listener(
        self, listener: Callable[[str, int, Optional[LinearMotion1D]], None]
    ) -> None:
        """Call ``listener(kind, oid, motion)`` after each acknowledged
        write (``"insert"``/``"update"``/``"delete"``; motion is
        ``None`` for deletes).  Delivery happens while the owning
        shard's lock is still held, so per-object notifications arrive
        in apply order — the guarantee
        :class:`~repro.service.continuous.SubscriptionManager` builds
        on.  Listeners therefore must be fast, must not raise, and
        must never call back into the service.
        """
        self._update_listeners.append(listener)

    def detach_update_listener(self, listener) -> None:
        self._update_listeners.remove(listener)

    def _notify_update(
        self, kind: str, oid: int, motion: Optional[LinearMotion1D]
    ) -> None:
        for listener in list(self._update_listeners):
            listener(kind, oid, motion)

    def _notify_update_batch(
        self, events: List[Tuple[str, int, Optional[LinearMotion1D]]]
    ) -> None:
        """One listener pass per batch, events in submission order.

        Each listener still receives every per-object event in apply
        order — the :meth:`attach_update_listener` guarantee — but the
        pass over the listener list happens once per batch instead of
        once per write, and the result cache absorbs the whole batch
        through :meth:`~repro.vector.cache.QueryResultCache.on_update_batch`
        (one lock acquisition and one generation advance covering all
        events).
        """
        if not events:
            return
        for listener in list(self._update_listeners):
            if (
                self.query_cache is not None
                and listener == self.query_cache.on_update
            ):
                self.query_cache.on_update_batch(events)
            else:
                for kind, oid, motion in events:
                    listener(kind, oid, motion)

    # -- seams (trivial here; the fault-tolerant subclass overrides them) --------

    def replica_group(self, primary: int) -> List[int]:
        """The shards holding objects whose primary is ``primary``."""
        return [primary]

    @contextmanager
    def _holding(self, shards: Iterable[int]) -> Iterator[None]:
        """Hold the given shards' locks, taken in ascending order."""
        held = sorted(set(shards))
        for shard in held:
            self._locks[shard].acquire()
        try:
            yield
        finally:
            for shard in reversed(held):
                self._locks[shard].release()

    def _answerable(self, shard: int) -> bool:
        """Whether a query should visit ``shard`` at all."""
        return True

    def _touch(
        self,
        shard: int,
        op_name: str,
        fn: Callable[[MotionDatabase], object],
        span,
        write: bool,
    ) -> object:
        """One shard access (caller holds its lock): ``fn(db)`` plus
        the I/O span.

        The contract is the fault-tolerant form's: raise
        :class:`ShardUnavailableError` when the shard cannot serve,
        let application-level rejections propagate unchanged.
        """
        db = self._shards[shard]
        before = db.io_snapshot()
        value = fn(db)
        span.add_shard_io(shard, db.io_delta_since(before))
        return value

    def _apply_write(
        self,
        shard: int,
        op_name: str,
        fn: Callable[[MotionDatabase], object],
        span,
        record_kind: str,
        record_fields: Dict,
    ) -> bool:
        """Apply one write to one shard; ``True`` iff it landed.

        ``(record_kind, record_fields)`` is the write's log record —
        dropped here, where there is no log.
        """
        self._touch(shard, op_name, fn, span, write=True)
        return True

    def _apply_sub_batch(
        self,
        shard: int,
        sub_ops: List[WriteOp],
        fences: List[Optional[int]],
        span,
        hook: Callable[[str], None],
    ) -> None:
        """Hand one shard its share of a write batch (all locks held):
        its planned sub-ops and, parallel to them, their fences.

        Here: one grouped :meth:`MotionDatabase.apply_batch`.  ``hook``
        fires ``write_batch.pre_fsync`` where a log would sit between
        its grouped append and its sync.
        """
        db = self._shards[shard]
        before = db.io_snapshot()
        errors = db.apply_batch(sub_ops)
        span.add_shard_io(shard, db.io_delta_since(before))
        for sub_op, error in zip(sub_ops, errors):
            if error is not None:
                # The catalog admitted the op under every lock, so a
                # shard-level rejection means catalog/shard
                # divergence — never mask it.
                raise RuntimeError(
                    f"shard {shard} rejected catalog-admitted op "
                    f"{sub_op!r}"
                ) from error
        hook("write_batch.pre_fsync")

    def _log(self, shard: int, kind: str, **fields: object) -> bool:
        """Log a protocol marker (band change, migration step) on one
        shard; ``True`` iff the shard is live to take it."""
        return True

    def _degrade(self, name: str, value, answered: Set[int]):
        """The answer to return when only ``answered`` shards replied."""
        return value

    def _commit_write(
        self,
        oid: int,
        owner: Optional[int],
        event: Tuple[str, int, Optional[LinearMotion1D]],
    ) -> None:
        """Catalog commit of one applied write (catalog lock held):
        ``oid`` now belongs to ``owner``, or to nobody."""
        if owner is None:
            self._ownership.drop(oid)
        else:
            self._owner[oid] = owner

    def _current_motion(self, oid: int, shard: int) -> LinearMotion1D:
        """The motion a migration copies: what owner ``shard`` holds."""
        return self._shards[shard].motion_of(oid)

    # -- updates ----------------------------------------------------------------

    def _claim(
        self, oid: int
    ) -> Tuple[Optional[int], Optional[MigrationState]]:
        """``(owner, in-flight migration)`` of ``oid``: what a write
        plan is made against, and what must still hold once the plan's
        shard locks are taken (catalog lock held)."""
        return self._owner.get(oid), self._ownership.migration_of(oid)

    def _plan_write(self, op: WriteOp) -> _WritePlan:
        """Decide everything placement means for one write operation.

        The one place an update's "which structure owns this object"
        decision is made (catalog lock held; nothing is mutated).
        Raises the contained rejections — duplicate register, unknown
        object, inadmissible motion — before any shard is touched, and
        otherwise returns ``(claim, steps, cleanup, owner, event)``:

        * ``claim`` — the :meth:`_claim` the plan was made against;
        * ``steps`` — ``(shard, sub-op, fence)`` in apply order, over
          the replica group(s) that must take the write; it succeeds
          iff at least one lands.  A report inside a migration's
          double-write window goes to both participants' groups and
          carries the fencing epoch (:func:`_step_record` turns a
          step into its log record);
        * ``cleanup`` — the old copies a cross-group move drops, only
          after a step landed (insert-new then delete-old, so a
          failure never loses the object);
        * ``owner`` — the catalog owner once applied (``None``: gone);
        * ``event`` — the listener notification.

        Delete sub-ops name every shard that *may* hold a copy; the
        consumers skip the ones that do not (a migration copy that
        never landed).
        """
        oid = op.oid
        owner, migration = claim = self._claim(oid)
        if isinstance(op, RegisterOp):
            if owner is not None:
                raise InvalidMotionError(
                    f"object {oid} is already registered; use report()"
                )
        elif owner is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        if isinstance(op, DeregisterOp):
            held = set(self.replica_group(owner))
            if migration is not None:
                held |= set(self.replica_group(migration.dest))
            steps = [(shard, op, None) for shard in sorted(held)]
            return claim, steps, [], None, ("delete", oid, None)
        motion = LinearMotion1D(op.y0, op.v, op.t0)
        self._model.check_admissible(motion, oid)
        if migration is not None:
            # Double-write window: the ownership table, not the router,
            # decides placement — recomputing the route from motion
            # here would fork the object onto a third shard
            # mid-migration.
            held = set(self.replica_group(migration.source)) | set(
                self.replica_group(migration.dest)
            )
            steps = [(shard, op, migration.epoch) for shard in sorted(held)]
            return claim, steps, [], owner, ("update", oid, motion)
        if owner is None or self.router.motion_sensitive:
            target = self.router.route(oid, motion)
        else:
            target = owner
        new = set(self.replica_group(target))
        if owner is None:
            steps = [(shard, op, None) for shard in sorted(new)]
            return claim, steps, [], target, ("insert", oid, motion)
        old = new if target == owner else set(self.replica_group(owner))
        steps = [(shard, op, None) for shard in sorted(old & new)]
        steps += [
            (shard, RegisterOp(oid, op.y0, op.v, op.t0), None)
            for shard in sorted(new - old)
        ]
        cleanup = [
            (shard, DeregisterOp(oid), None) for shard in sorted(old - new)
        ]
        return claim, steps, cleanup, target, ("update", oid, motion)

    def _write(self, op: WriteOp) -> None:
        """Apply one write: plan, lock the plan's shards, re-validate.

        Placement can only change while the involved shard locks are
        held, so holding the plan's locks and finding its claim still
        current gives a stable plan; a lost race (another update moved
        the object, a migration began or resolved) retries with a
        fresh one.  The catalog commits only after at least one
        replica applied the write, and listeners fire before the locks
        are released.
        """
        name = _VERBS[type(op)]
        oid = op.oid
        with self.metrics.span(name) as span:
            while True:
                with self._catalog_lock:
                    claim, steps, cleanup, owner, event = self._plan_write(op)
                registering, fenced = claim[0] is None, claim[1] is not None
                with self._holding(s for s, _, _ in steps + cleanup):
                    with self._catalog_lock:
                        if self._claim(oid) != claim:
                            if fenced:
                                self.metrics.counter(
                                    "rebalance_fenced_writes"
                                ).increment()
                            continue
                        if registering:
                            # Reserve ownership so a concurrent duplicate
                            # register (it may hold other shards' locks)
                            # fails fast; rolled back if nothing lands.
                            self._owner[oid] = owner
                    try:
                        landed = [
                            s
                            for s, sub_op, fence in steps
                            if self._apply_step(s, name, sub_op, fence, span)
                        ]
                        if not landed:
                            raise ShardUnavailableError(
                                f"{name}({oid}): no live replica in "
                                f"{[s for s, _, _ in steps]}"
                            )
                    except Exception:
                        if registering:
                            with self._catalog_lock:
                                self._owner.pop(oid, None)
                        raise
                    for s, sub_op, fence in cleanup:
                        self._apply_step(s, name, sub_op, fence, span)
                    with self._catalog_lock:
                        self._commit_write(oid, owner, event)
                    if fenced and event[0] == "update":
                        self.metrics.counter(
                            "rebalance_double_writes"
                        ).increment()
                    self._notify_update(*event)
                    return

    def _apply_step(
        self, shard: int, name: str, sub_op: WriteOp, fence, span
    ) -> bool:
        """Run one planned step through :meth:`_apply_write`."""
        if (
            isinstance(sub_op, DeregisterOp)
            and sub_op.oid not in self._shards[shard]
        ):
            return False  # copy never landed on this shard
        return self._apply_write(
            shard, name, lambda db: _apply_op(db, sub_op), span,
            *_step_record(sub_op, fence),
        )

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object to its replica group; rejects duplicates."""
        self._write(RegisterOp(oid, y0, v, t0))

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Process a motion update, moving the object between replica
        groups when routing says so (the new group is written before
        the old copies are dropped, so a failure never loses the
        object); during a migration, on both participants."""
        self._write(ReportOp(oid, y0, v, t0))

    def deregister(self, oid: int) -> None:
        """Remove an object; during a migration, from both sides."""
        self._write(DeregisterOp(oid))

    def location_of(self, oid: int, t: float) -> float:
        """Extrapolated location of one object at time ``t``, from the
        first member of its replica group that can serve."""
        group = self.replica_group(self.shard_of(oid))
        with self.metrics.span("location_of") as span:
            for shard in group:
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
                f"object {oid}: no live replica in group {group}"
            )

    # -- batched writes ----------------------------------------------------------

    def report_batch(
        self, reports: Sequence[ReportOp]
    ) -> List[Optional[Exception]]:
        """Apply a batch of motion reports (see :meth:`apply_batch`)."""
        return self.apply_batch(reports)

    def apply_batch(
        self,
        ops: Sequence[WriteOp],
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> List[Optional[Exception]]:
        """Apply a batch of write operations with one visit per shard.

        Accepts the :mod:`repro.vector.ops` write vocabulary
        (``RegisterOp`` / ``ReportOp`` / ``DeregisterOp``) and returns
        a list parallel to ``ops``: ``None`` for an applied operation,
        or the rejection exception (same types and messages as the
        scalar methods raise) for a contained per-operation failure —
        a rejected operation never disturbs its neighbours.

        The batch is one critical section: every shard lock is taken
        (ascending, the :meth:`proximity_pairs` discipline), operations
        are planned against the catalog **in submission order**
        (:meth:`_plan_write`, the scalar methods' plan) and grouped by
        target shard, then each shard absorbs its group through one
        :meth:`MotionDatabase.apply_batch` call.  Grouping
        per shard is safe because writes to different objects commute
        and same-object operations always group onto the same shard in
        order (a motion-sensitive cross-shard move splits into a
        source delete and a destination insert on two different
        databases, which also commute).  Listeners fire once per batch
        in submission order (:meth:`_notify_update_batch`) before any
        lock is released, so readers never observe a half-applied
        batch and subscriptions keep their per-object apply-order
        guarantee.  Final state and answers are identical to calling
        the scalar methods in the same order.

        ``crash_hook`` fires ``write_batch.pre_fsync`` once per touched
        shard, after its group applied (see :meth:`_apply_sub_batch`).
        """
        with self.metrics.span("apply_batch") as span:
            _check_write_ops(ops)
            outcomes: List[Optional[Exception]] = [None] * len(ops)
            events: List[Tuple[str, int, Optional[LinearMotion1D]]] = []
            # shard -> (its sub-ops, their fences), submission order
            staged: Dict[int, Tuple[List, List]] = {}
            # Residency overlay for sub-ops staged but not yet applied,
            # so a register → deregister pair inside one batch resolves
            # against the state the earlier op *will* have produced.
            pending: Dict[Tuple[int, int], bool] = {}

            def resident(shard: int, oid: int) -> bool:
                staged_state = pending.get((shard, oid))
                if staged_state is None:
                    return oid in self._shards[shard]
                return staged_state

            with self._holding(range(self.shard_count)):
                with self._catalog_lock:
                    # The catalog commits as ops resolve, so duplicate
                    # oids within one batch see each other in order;
                    # with every lock held no plan can go stale.
                    for i, op in enumerate(ops):
                        try:
                            (_, migration), steps, cleanup, owner, event = (
                                self._plan_write(op)
                            )
                        except (
                            InvalidMotionError,
                            ObjectNotFoundError,
                        ) as exc:
                            outcomes[i] = exc
                            continue
                        for shard, sub_op, fence in steps + cleanup:
                            if isinstance(sub_op, DeregisterOp):
                                if not resident(shard, sub_op.oid):
                                    continue  # copy never landed here
                                pending[shard, sub_op.oid] = False
                            elif isinstance(sub_op, RegisterOp):
                                pending[shard, sub_op.oid] = True
                            sub_ops, fences = staged.setdefault(
                                shard, ([], [])
                            )
                            sub_ops.append(sub_op)
                            fences.append(fence)
                        self._commit_write(op.oid, owner, event)
                        if migration is not None and event[0] == "update":
                            self.metrics.counter(
                                "rebalance_double_writes"
                            ).increment()
                        events.append(event)
                hook = crash_hook or _no_hook
                for shard in sorted(staged):
                    self._apply_sub_batch(shard, *staged[shard], span, hook)
                self._notify_update_batch(events)
            return outcomes

    # -- live rebalancing (two-phase object migration) ---------------------------
    #
    # The protocol (driven by repro.service.rebalance, usable alone):
    #
    #   begin_migration  COPYING: the destination group gets a snapshot
    #                    of the object's motion + §7 history
    #                    (`migrate_in`), the source logs `migrate_begin`;
    #                    from here until resolution, reports double-write
    #                    to both sides and reads merge over both.
    #   commit_migration CUTOVER → COMMITTED: fenced by the migration
    #                    epoch; `migrate_commit` is logged on both
    #                    participants (destination first — its presence
    #                    is what recovery treats as the commit decision),
    #                    the source side drops its copies (`migrate_out`)
    #                    and ownership moves to the destination.
    #   abort_migration  → ABORTED: fenced; the destination copies are
    #                    dropped (`migrate_abort`) and ownership stays
    #                    with the source.
    #
    # Crash-point hooks fire at the four protocol boundaries
    # (rebalance.copy_sent / .pre_commit / .between_commits /
    # .post_commit, see repro.service.faults.MIGRATION_CRASH_POINTS).
    # A SimulatedCrashError from a hook is process death: no cleanup
    # runs, exactly as a killed process would leave things.

    def set_bands(self, edges) -> int:
        """Install a new band layout on the router (the rebalance
        controller's split/merge lever) and log it on every live
        shard; returns the new band epoch.

        The epoch-numbered ``bands`` record is what lets a restart
        re-elect owners with the same cut the pre-crash service used —
        any one surviving shard's log is enough.
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
            for shard in range(self.shard_count):
                self._log(shard, "bands", edges=layout, epoch=epoch)
        return epoch

    def begin_migration(
        self,
        oid: int,
        dest: int,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> MigrationState:
        """Copy phase: open a fenced migration of ``oid`` to ``dest``.

        Destination-group shards outside the source group receive the
        snapshot, and the returned state is the fencing token for the
        cutover.  Any failure (other than an injected process crash) —
        including no destination copy landing at all, which surfaces
        as :class:`ShardUnavailableError` — rolls the copy back so no
        partial destination copy survives.
        """
        if not 0 <= dest < self.shard_count:
            raise ValueError(f"destination shard {dest} out of range")
        hook = crash_hook or _no_hook
        with self.metrics.span("migrate_begin") as span:
            with self._catalog_lock:
                source = self._owner.get(oid)
            if source is None:
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
                    motion = self._current_motion(oid, source)

                    def copy_in(db: MotionDatabase) -> None:
                        db.register(oid, motion.y0, motion.v, motion.t0)
                        self._copy_history(self._shards[source], db, oid)

                    new_shards = sorted(dst_group - src_group)
                    landed = [
                        shard
                        for shard in new_shards
                        if self._apply_write(
                            shard, "migrate_in", copy_in, span, "migrate_in",
                            {"oid": oid, "y0": motion.y0, "v": motion.v,
                             "t0": motion.t0, "epoch": state.epoch,
                             "source": source},
                        )
                    ]
                    if new_shards and not landed:
                        raise ShardUnavailableError(
                            f"migrate({oid}): no live destination in "
                            f"group {sorted(dst_group)}"
                        )
                    self._log(
                        source, "migrate_begin", oid=oid,
                        epoch=state.epoch, dest=dest,
                    )
                    hook("rebalance.copy_sent")
                except SimulatedCrashError:
                    raise
                except Exception:
                    self._rollback_copy(state, span)
                    raise
                return state

    @staticmethod
    def _copy_history(
        src_db: MotionDatabase, dst_db: MotionDatabase, oid: int
    ) -> None:
        """Ship the object's §7 archive with the copy (both ends must
        keep history; otherwise there is nothing to move)."""
        if not (src_db.history_enabled and dst_db.history_enabled):
            return
        versions = src_db.history_of(oid)
        if versions:
            dst_db.restore_history(versions)

    def _rollback_copy(self, state: MigrationState, span) -> None:
        """Undo a copy phase: drop landed destination copies, log the
        abort, release the fencing state.  Best-effort on purpose —
        dead shards are reconciled at recovery instead."""
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
        self._log(
            state.source, "migrate_abort", oid=state.oid,
            epoch=state.epoch, role="source",
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
        """Cutover: fenced ownership transfer to the destination.

        The epoch-numbered ``migrate_commit`` record goes to *both*
        participants' logs, destination first, then the source side
        physically drops its copies under ``migrate_out`` records.
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
                hook("rebalance.pre_commit")
                if not self._log(
                    state.dest, "migrate_commit", oid=state.oid,
                    epoch=state.epoch, role="dest", source=state.source,
                ):
                    raise ShardUnavailableError(
                        f"migrate({state.oid}): destination shard "
                        f"{state.dest} died before cutover"
                    )
                hook("rebalance.between_commits")
                self._log(
                    state.source, "migrate_commit", oid=state.oid,
                    epoch=state.epoch, role="source", dest=state.dest,
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
        """Fenced abort: drop the destination copies, keep the source."""
        with self.metrics.span("migrate_abort") as span:
            with self._holding(
                self.replica_group(state.source)
                + self.replica_group(state.dest)
            ):
                with self._catalog_lock:
                    if not self._ownership.admits(state.oid, state.epoch):
                        raise StaleMigrationError(
                            f"abort of {state} rejected: epoch is stale"
                        )
                self._rollback_copy(state, span)

    # -- queries ----------------------------------------------------------------

    def _fanout(
        self, name: str, fn: Callable[[MotionDatabase], object], span
    ) -> Dict[int, object]:
        """Each answerable shard's ``fn(db)``, one shard lock at a
        time, keyed by shard in ascending order."""
        parts: Dict[int, object] = {}
        for shard in range(self.shard_count):
            if not self._answerable(shard):
                continue
            with self._locks[shard]:
                try:
                    parts[shard] = self._touch(
                        shard, name, fn, span, write=False
                    )
                except ShardUnavailableError:
                    continue
        return parts

    def _fanout_union(self, name: str, fn, span) -> Tuple[Set, Set[int]]:
        """A per-shard set query unioned over every answerable shard
        (an object's copies collapse in the union), and who answered."""
        parts = self._fanout(name, fn, span)
        return set().union(*parts.values()), set(parts)

    def within(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """MOR query, fanned out; per-shard answers union."""
        with self.metrics.span("within") as span:
            result, answered = self._fanout_union(
                "within", lambda db: db.within(y1, y2, t1, t2), span
            )
            return self._degrade("within", result, answered)

    def snapshot_at(self, y1: float, y2: float, t: float) -> Set[int]:
        """Instant query, fanned out and unioned."""
        with self.metrics.span("snapshot_at") as span:
            result, answered = self._fanout_union(
                "snapshot_at", lambda db: db.snapshot_at(y1, y2, t), span
            )
            return self._degrade("snapshot_at", result, answered)

    def query_past(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """Historical MOR query (requires ``keep_history=True``)."""
        with self.metrics.span("query_past") as span:
            result, answered = self._fanout_union(
                "query_past", lambda db: db.query_past(y1, y2, t1, t2), span
            )
            return self._degrade("query_past", result, answered)

    def nearest(
        self, y: float, t: float, k: int = 1
    ) -> List[Tuple[int, float]]:
        """Global ``k``-NN: per-shard exact top-``k``, then re-rank.

        Tie-break: equal distances order by ascending object id — the
        same total order :func:`repro.extensions.neighbors.knn_at`
        uses, so results are byte-identical to a single database.  The
        merge is keyed by oid: an object resident on several shards
        (replicas, a migration's double-write window) contributes one
        candidate, not several.
        """
        with self.metrics.span("nearest") as span:
            parts = self._fanout(
                "nearest", lambda db: db.nearest(y, t, k), span
            )
            ranked = _merge_nearest(parts.values(), k)
            return self._degrade("nearest", ranked, set(parts))

    def proximity_pairs(
        self, d: float, t1: float, t2: float
    ) -> Set[Tuple[int, int]]:
        """All unordered pairs coming within ``d`` during the window.

        Locks every answerable shard (ascending) for the duration: the
        join must see one consistent population across shards.
        Within-shard pairs come from each shard's self-join;
        cross-shard pairs from directed candidate exchange between
        each shard pair, visited once (``i < j``).  Duplicate pairs
        collapse in the merge and self-pairs are filtered from the
        exchange: an object resident on two shards (a replica, a
        migration in flight) would otherwise pair with its own copy.
        """
        with self.metrics.span("proximity_pairs") as span:
            candidates = [
                shard
                for shard in range(self.shard_count)
                if self._answerable(shard)
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
                    db = self._shards[i]
                    before = db.io_snapshot()
                    pairs |= db.proximity_pairs(d, t1, t2)
                    outer = db.objects()
                    span.add_shard_io(i, db.io_delta_since(before))
                    for j in answered[position + 1:]:
                        inner = self._shards[j]
                        before_j = inner.io_snapshot()
                        directed = inner.join_against(outer, d, t1, t2)
                        span.add_shard_io(
                            j, inner.io_delta_since(before_j)
                        )
                        pairs |= {
                            (min(a, b), max(a, b))
                            for a, b in directed
                            if a != b
                        }
            return self._degrade("proximity_pairs", pairs, set(answered))

    # -- batch queries ----------------------------------------------------------

    def query_batch(self, ops: Sequence[QueryOp]) -> List:
        """Answer a batch of read operations with one fan-out per shard.

        Accepts the :mod:`repro.vector.ops` vocabulary and returns one
        result per operation, in order, identical to calling the
        scalar methods one by one (the batch API changes throughput,
        not semantics).  The win over the scalar loop is twofold:

        * each shard is visited **once per batch** — the whole batch
          is pushed down as one
          :meth:`MotionDatabase.query_batch` kernel invocation under
          the shard lock, instead of one lock/query round-trip per
          query per shard;
        * answers are memoized in :class:`QueryResultCache` (keyed on
          the query and the clock bucket, invalidated by writes), so
          repeated queries inside and across batches skip the shards
          entirely.

        ``ProximityPairs`` operations need cross-shard candidate
        exchange and are delegated to :meth:`proximity_pairs`; they
        still participate in the cache.

        Metrics caveat: with the columnar mirror active the pushed-down
        batch is answered by in-memory kernels that never touch the
        simulated disk pages, so the ``query_batch`` span's per-shard
        I/O is near zero by construction.  It is **not comparable** to
        the scalar operations' ``shard_io`` — use wall-clock throughput
        (``read_qps`` / ``scalar_qps`` in ``benchmarks/perf``) to
        compare the two legs, not I/O counts.
        """
        with self.metrics.span("query_batch") as span:
            for op in ops:
                if not isinstance(
                    op, (Within, SnapshotAt, Nearest, ProximityPairs)
                ):
                    raise TypeError(f"unknown query operation {op!r}")
            now = self.now
            results: List = [None] * len(ops)
            misses: "Dict[QueryOp, List[int]]" = {}
            for i, op in enumerate(ops):
                if self.query_cache is not None:
                    hit, value = self.query_cache.get(op, now)
                    if hit:
                        results[i] = value
                        continue
                misses.setdefault(op, []).append(i)
            if misses:
                pending = list(misses)
                # Snapshot the write generation before touching any
                # shard: a write landing mid-compute cannot invalidate
                # an entry that is not resident yet, so put() replays
                # the writes since this point against each computed
                # answer and drops the ones they could have changed.
                generation = (
                    self.query_cache.generation()
                    if self.query_cache is not None
                    else 0
                )
                computed = self._compute_batch(pending, span)
                for op, value in zip(pending, computed):
                    if self.query_cache is not None:
                        self.query_cache.put(
                            op, value, now, generation=generation
                        )
                    slots = misses[op]
                    results[slots[0]] = value
                    for slot in slots[1:]:  # duplicates get fresh copies
                        results[slot] = copy_result(value)
            return results

    def _inline_shard_answers(self, s: int, batch: List[QueryOp], span) -> List:
        """One shard's sub-batch on the in-process path (under its lock)."""
        shard = self._shards[s]
        with self._locks[s]:
            before = shard.io_snapshot()
            start = time.perf_counter()
            answers = shard.query_batch(batch)
            self.metrics.record_shard_latency(
                s, "query_batch.compute", time.perf_counter() - start
            )
            span.add_shard_io(s, shard.io_delta_since(before))
        return answers

    def _handle_worker_death(self, shards: List[int]) -> bool:
        """Policy hook for pool-worker failure.

        Returns ``True`` to recompute the lost shards inline (the
        plain service: answers stay complete, just slower this batch).
        The fault-tolerant subclass overrides this to route the dead
        lanes through its ``kill_shard`` / degraded-result machinery
        instead.  Either way the pool has already respawned the
        worker, so the next batch runs at full width.
        """
        self.metrics.counter("parallel_worker_deaths").increment(len(shards))
        self.metrics.counter("parallel_inline_fallbacks").increment(
            len(shards)
        )
        return True

    def _per_shard_answers(self, batch: List[QueryOp], span) -> List[List]:
        """Each shard's answers to ``batch``: pooled when possible.

        With a worker pool, every shard whose mirror is a shared
        segment is dispatched as one pool task (the worker snapshots
        the segment under its seqlock and runs the same
        ``evaluate_arrays`` dispatch as the inline leg); the rest —
        and any lane lost to a worker death, when
        :meth:`_handle_worker_death` says so — are computed inline
        under the shard lock.  ``workers=0`` is exactly the old
        sequential loop.
        """
        n = len(self._shards)
        per_shard: List[Optional[List]] = [None] * n
        tasks = []
        if self._pool is not None:
            for s in range(n):
                name = getattr(
                    self._shards[s].columns, "segment_name", None
                )
                if name is not None:
                    tasks.append((s, name, batch))
        if tasks:
            self.metrics.counter("parallel_tasks").increment(len(tasks))
            try:
                answers, elapsed = self._pool.query_shards(tasks)
            except WorkerCrashError as exc:
                answers, elapsed = exc.partial, {}
                if not self._handle_worker_death(exc.shards):
                    # Placeholder answers: the fault-tolerant caller
                    # has marked these shards down and will discard
                    # the whole batch for its degraded path.
                    for s in exc.shards:
                        answers[s] = [_empty_answer(op) for op in batch]
            for s, shard_answers in answers.items():
                per_shard[s] = shard_answers
                if s in elapsed:
                    self.metrics.record_shard_latency(
                        s, "query_batch.compute", elapsed[s]
                    )
        for s in range(n):
            if per_shard[s] is None:
                per_shard[s] = self._inline_shard_answers(s, batch, span)
        return per_shard

    def _compute_batch(self, ops: List[QueryOp], span) -> List:
        """Evaluate cache-missed operations: shard push-down + merge."""
        results: List = [None] * len(ops)
        shardable = [
            (i, op)
            for i, op in enumerate(ops)
            if isinstance(op, (Within, SnapshotAt, Nearest))
        ]
        if shardable:
            batch = [op for _, op in shardable]
            per_shard = self._per_shard_answers(batch, span)
            for j, (slot, op) in enumerate(shardable):
                if isinstance(op, Nearest):
                    results[slot] = _merge_nearest(
                        (answers[j] for answers in per_shard), op.k
                    )
                else:
                    merged: Set[int] = set()
                    for answers in per_shard:
                        merged |= answers[j]
                    results[slot] = merged
        for i, op in enumerate(ops):
            if isinstance(op, ProximityPairs):
                results[i] = self.proximity_pairs(op.d, op.t1, op.t2)
        return results

    # -- accounting -------------------------------------------------------------

    def clear_buffers(self) -> None:
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                shard.clear_buffers()

    # -- lifecycle --------------------------------------------------------------

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The worker-process pool (``None`` on the in-process path)."""
        return self._pool

    @property
    def parallel_workers(self) -> int:
        """Pool width (0 on the in-process path)."""
        return self._pool.size if self._pool is not None else 0

    def close(self) -> None:
        """Release parallel-tier resources.

        Stops the worker pool if this service spawned it (a shared
        pool passed in by the caller is left running) and unlinks
        every shard's shared-memory segments.  Idempotent; a no-op for
        a ``workers=0`` service.  The service must not be used after
        close when the parallel tier was active — the shard mirrors'
        buffers are gone.
        """
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        self._pool = None
        for db in self._shards:
            self._retire_database(db)

    def service_stats(self) -> Dict[str, object]:
        """One self-describing snapshot of the whole service.

        Layout::

            {
              "shards": k,
              "router": "hash" | "velocity" | <class name>,
              "objects": total population,
              "now": latest update clock,
              "metrics": MetricsRegistry.snapshot(),   # ops + per-shard
              "shard_state": [
                {"shard": i, "objects": n, "now": t,
                 "pages_in_use": p,
                 "io": {"reads": R, "writes": W, "buffer_hits": H}},
                ...
              ],
            }

        Note that the ``query_batch`` row's ``shard_io`` reflects the
        columnar fast path (no simulated index I/O), so it does not
        compare against the scalar rows' I/O; see :meth:`query_batch`.
        """
        shard_state = []
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                totals = combine_snapshots(shard.io_snapshot())
                shard_state.append(
                    {
                        "shard": i,
                        "objects": len(shard),
                        "now": shard.now,
                        "pages_in_use": shard.pages_in_use,
                        "io": {
                            "reads": totals.reads,
                            "writes": totals.writes,
                            "buffer_hits": totals.buffer_hits,
                        },
                    }
                )
        return {
            "shards": self.shard_count,
            "router": getattr(
                self.router, "name", type(self.router).__name__
            ),
            "objects": len(self),
            "now": self.now,
            "metrics": self.metrics.snapshot(),
            "shard_state": shard_state,
        }
