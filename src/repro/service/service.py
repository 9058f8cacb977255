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

Every public operation runs inside a metrics span; see
:meth:`service_stats` for the snapshot format.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.model import LinearMotion1D, MotionModel, Terrain1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
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
)

#: Router factories selectable by name (``router="velocity"``).
ROUTER_FACTORIES: Dict[str, Callable[[int, float], ShardRouter]] = {
    "hash": lambda shards, v_max: HashRouter(shards),
    "velocity": lambda shards, v_max: VelocityRouter(shards, v_max),
    "band": lambda shards, v_max: BandRouter(shards, v_max),
}


def _no_hook(point: str) -> None:
    """Default (disarmed) migration crash-point hook."""


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
            from repro.vector import HAVE_NUMPY, SharedMotionColumns

            if not HAVE_NUMPY:
                raise RuntimeError(
                    "the worker-process tier needs numpy (shared-memory "
                    "columns); construct with workers=0 instead"
                )
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

    # -- updates ----------------------------------------------------------------

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object; routes to its shard, rejects duplicates."""
        with self.metrics.span("register") as span:
            motion = LinearMotion1D(y0, v, t0)
            target = self.router.route(oid, motion)
            with self._catalog_lock:
                if oid in self._owner:
                    raise InvalidMotionError(
                        f"object {oid} is already registered; use report()"
                    )
                # Reserve ownership so a concurrent duplicate register
                # fails fast; rolled back if the shard rejects the motion.
                self._owner[oid] = target
            try:
                with self._locks[target]:
                    before = self._shards[target].io_snapshot()
                    self._shards[target].register(oid, y0, v, t0)
                    span.add_shard_io(
                        target, self._shards[target].io_delta_since(before)
                    )
                    self._notify_update("insert", oid, motion)
            except Exception:
                with self._catalog_lock:
                    self._owner.pop(oid, None)
                raise

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Process a motion update, migrating shards when routing says so.

        Ownership can only change while *both* involved shard locks are
        held, so holding the current owner's lock and re-checking the
        catalog gives a stable claim; a lost race (another update moved
        the object first) simply retries with the fresh owner.
        """
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
                # Before any shard is touched: a cross-shard move that
                # deregistered first and was refused second would lose
                # the object.
                self._model.check_admissible(motion)
                if migration is not None:
                    # Double-write window: the ownership table, not the
                    # router, decides placement — recomputing the route
                    # from motion here would fork the object onto a
                    # third shard mid-migration.  The write applies to
                    # both participants and emits exactly one update
                    # notification.
                    if self._report_double_write(
                        oid, y0, v, t0, motion, migration, span
                    ):
                        return
                    continue  # migration resolved under us; retry
                target = (
                    self.router.route(oid, motion)
                    if self.router.motion_sensitive
                    else current
                )
                held = sorted({current, target})
                for shard in held:
                    self._locks[shard].acquire()
                try:
                    with self._catalog_lock:
                        if self._owner.get(oid) != current:
                            continue  # lost the race; retry with new owner
                    if target == current:
                        before = self._shards[current].io_snapshot()
                        self._shards[current].report(oid, y0, v, t0)
                        span.add_shard_io(
                            current,
                            self._shards[current].io_delta_since(before),
                        )
                    else:
                        before_src = self._shards[current].io_snapshot()
                        self._shards[current].deregister(oid)
                        span.add_shard_io(
                            current,
                            self._shards[current].io_delta_since(before_src),
                        )
                        before_dst = self._shards[target].io_snapshot()
                        self._shards[target].register(oid, y0, v, t0)
                        span.add_shard_io(
                            target,
                            self._shards[target].io_delta_since(before_dst),
                        )
                        with self._catalog_lock:
                            self._owner[oid] = target
                    self._notify_update("update", oid, motion)
                    return
                finally:
                    for shard in reversed(held):
                        self._locks[shard].release()

    def _report_double_write(
        self,
        oid: int,
        y0: float,
        v: float,
        t0: float,
        motion: LinearMotion1D,
        migration: MigrationState,
        span,
    ) -> bool:
        """Apply one report to both migration participants (fenced).

        Returns ``True`` when the write landed; ``False`` when the
        fencing check failed — the migration was committed or aborted
        between the catalog read and the lock acquisition — and the
        caller must re-resolve ownership and retry.
        """
        held = sorted({migration.source, migration.dest})
        for shard in held:
            self._locks[shard].acquire()
        try:
            with self._catalog_lock:
                if not self._ownership.admits(oid, migration.epoch):
                    self.metrics.counter(
                        "rebalance_fenced_writes"
                    ).increment()
                    return False
            for shard in held:
                before = self._shards[shard].io_snapshot()
                self._shards[shard].report(oid, y0, v, t0)
                span.add_shard_io(
                    shard, self._shards[shard].io_delta_since(before)
                )
            self.metrics.counter("rebalance_double_writes").increment()
            self._notify_update("update", oid, motion)
            return True
        finally:
            for shard in reversed(held):
                self._locks[shard].release()

    def deregister(self, oid: int) -> None:
        """Remove an object; during a migration, from both shards."""
        with self.metrics.span("deregister") as span:
            while True:
                with self._catalog_lock:
                    shard = self._owner.get(oid)
                    migration = self._ownership.migration_of(oid)
                if shard is None:
                    raise ObjectNotFoundError(
                        f"object {oid} is not registered"
                    )
                held = (
                    sorted({migration.source, migration.dest})
                    if migration is not None
                    else [shard]
                )
                for lock_shard in held:
                    self._locks[lock_shard].acquire()
                try:
                    with self._catalog_lock:
                        if (
                            self._owner.get(oid) != shard
                            or self._ownership.migration_of(oid)
                            != migration
                        ):
                            continue  # placement changed; retry
                    for db_shard in held:
                        db = self._shards[db_shard]
                        if oid not in db:
                            continue  # copy never landed on this side
                        before = db.io_snapshot()
                        db.deregister(oid)
                        span.add_shard_io(
                            db_shard, db.io_delta_since(before)
                        )
                    with self._catalog_lock:
                        self._ownership.drop(oid)
                    self._notify_update("delete", oid, None)
                    return
                finally:
                    for lock_shard in reversed(held):
                        self._locks[lock_shard].release()

    def location_of(self, oid: int, t: float) -> float:
        """Extrapolated location of one object at time ``t``."""
        shard = self.shard_of(oid)
        with self._locks[shard]:
            return self._shards[shard].location_of(oid, t)

    # -- batched writes ----------------------------------------------------------

    def report_batch(
        self, reports: Sequence[ReportOp]
    ) -> List[Optional[Exception]]:
        """Apply a batch of motion reports (see :meth:`apply_batch`)."""
        return self.apply_batch(reports)

    def apply_batch(
        self, ops: Sequence[WriteOp]
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
        are resolved against the catalog **in submission order** and
        grouped by target shard, then each shard absorbs its group
        through one :meth:`MotionDatabase.apply_batch` call.  Grouping
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
        """
        with self.metrics.span("apply_batch") as span:
            for op in ops:
                if not isinstance(
                    op, (RegisterOp, ReportOp, DeregisterOp)
                ):
                    raise TypeError(f"unknown write operation {op!r}")
            for lock in self._locks:
                lock.acquire()
            try:
                outcomes, events, per_shard, origins = self._resolve_batch(
                    ops
                )
                for shard in sorted(per_shard):
                    db = self._shards[shard]
                    before = db.io_snapshot()
                    sub_outcomes = db.apply_batch(per_shard[shard])
                    span.add_shard_io(shard, db.io_delta_since(before))
                    for pos, error in enumerate(sub_outcomes):
                        if error is not None:
                            # The catalog admitted the op under every
                            # lock, so a shard-level rejection means
                            # catalog/shard divergence — never mask it.
                            raise RuntimeError(
                                f"shard {shard} rejected catalog-admitted "
                                f"op {per_shard[shard][pos]!r}"
                            ) from error
                self._notify_update_batch(events)
                return outcomes
            finally:
                for lock in reversed(self._locks):
                    lock.release()

    def _resolve_batch(
        self, ops: Sequence[WriteOp]
    ) -> Tuple[
        List[Optional[Exception]],
        List[Tuple[str, int, Optional[LinearMotion1D]]],
        Dict[int, List[WriteOp]],
        Dict[int, List[int]],
    ]:
        """Route one write batch against the catalog, in order.

        Runs with every shard lock held.  Returns ``(outcomes, events,
        per_shard, origins)``: contained per-op rejections, the update
        events to fire, each shard's sub-batch, and the sub-batch's
        originating op indexes (for error attribution).  The catalog is
        mutated as ops resolve, so duplicate oids within one batch see
        each other in submission order.
        """
        outcomes: List[Optional[Exception]] = [None] * len(ops)
        events: List[Tuple[str, int, Optional[LinearMotion1D]]] = []
        per_shard: Dict[int, List[WriteOp]] = {}
        origins: Dict[int, List[int]] = {}
        # Residency overlay for sub-ops routed but not yet applied, so
        # a register → deregister pair inside one batch resolves against
        # the state the earlier op *will* have produced.
        pending: Dict[Tuple[int, int], bool] = {}

        def resident(shard: int, oid: int) -> bool:
            key = (shard, oid)
            if key in pending:
                return pending[key]
            return oid in self._shards[shard]

        def push(shard: int, sub_op: WriteOp, index: int) -> None:
            per_shard.setdefault(shard, []).append(sub_op)
            origins.setdefault(shard, []).append(index)
            if isinstance(sub_op, RegisterOp):
                pending[(shard, sub_op.oid)] = True
            elif isinstance(sub_op, DeregisterOp):
                pending[(shard, sub_op.oid)] = False

        def admitted(index: int, motion: LinearMotion1D) -> bool:
            try:
                self._model.check_admissible(motion)
            except InvalidMotionError as exc:
                outcomes[index] = exc
                return False
            return True

        with self._catalog_lock:
            for i, op in enumerate(ops):
                if isinstance(op, RegisterOp):
                    if op.oid in self._owner:
                        outcomes[i] = InvalidMotionError(
                            f"object {op.oid} is already registered; "
                            "use report()"
                        )
                        continue
                    motion = LinearMotion1D(op.y0, op.v, op.t0)
                    if not admitted(i, motion):
                        continue
                    target = self.router.route(op.oid, motion)
                    self._owner[op.oid] = target
                    push(target, op, i)
                    events.append(("insert", op.oid, motion))
                elif isinstance(op, ReportOp):
                    current = self._owner.get(op.oid)
                    if current is None:
                        outcomes[i] = ObjectNotFoundError(
                            f"object {op.oid} is not registered"
                        )
                        continue
                    motion = LinearMotion1D(op.y0, op.v, op.t0)
                    if not admitted(i, motion):
                        continue
                    migration = self._ownership.migration_of(op.oid)
                    if migration is not None:
                        # Double-write window: every lock is held, so
                        # the migration cannot resolve mid-batch and
                        # the fencing epoch is necessarily current.
                        for shard in sorted(
                            {migration.source, migration.dest}
                        ):
                            push(shard, op, i)
                        self.metrics.counter(
                            "rebalance_double_writes"
                        ).increment()
                    else:
                        target = (
                            self.router.route(op.oid, motion)
                            if self.router.motion_sensitive
                            else current
                        )
                        if target == current:
                            push(current, op, i)
                        else:
                            push(current, DeregisterOp(op.oid), i)
                            push(
                                target,
                                RegisterOp(op.oid, op.y0, op.v, op.t0),
                                i,
                            )
                            self._owner[op.oid] = target
                    events.append(("update", op.oid, motion))
                else:
                    current = self._owner.get(op.oid)
                    if current is None:
                        outcomes[i] = ObjectNotFoundError(
                            f"object {op.oid} is not registered"
                        )
                        continue
                    migration = self._ownership.migration_of(op.oid)
                    held = (
                        sorted({migration.source, migration.dest})
                        if migration is not None
                        else [current]
                    )
                    for shard in held:
                        if resident(shard, op.oid):
                            push(shard, op, i)
                    self._ownership.drop(op.oid)
                    events.append(("delete", op.oid, None))
        return outcomes, events, per_shard, origins

    # -- live rebalancing (two-phase object migration) ---------------------------
    #
    # The protocol (driven by repro.service.rebalance, usable alone):
    #
    #   begin_migration  COPYING: the destination gets a snapshot of
    #                    the object's motion + §7 history; from here
    #                    until resolution, reports double-write to
    #                    both shards and reads merge over both.
    #   commit_migration CUTOVER → COMMITTED: fenced by the migration
    #                    epoch; ownership moves to the destination and
    #                    the source copy is dropped.
    #   abort_migration  → ABORTED: fenced; the destination copy is
    #                    dropped and ownership stays with the source.
    #
    # Crash-point hooks fire at the four protocol boundaries
    # (rebalance.copy_sent / .pre_commit / .between_commits /
    # .post_commit, see repro.service.faults.MIGRATION_CRASH_POINTS).
    # A SimulatedCrashError from a hook is process death: no cleanup
    # runs, exactly as a killed process would leave things.

    def set_bands(self, edges) -> int:
        """Install a new band layout on the router (the rebalance
        controller's split/merge lever); returns the new band epoch.
        """
        if not isinstance(self.router, BandRouter):
            raise ValueError(
                f"router {getattr(self.router, 'name', self.router)!r} "
                f"has no mutable bands; use router='velocity' or a "
                f"BandRouter"
            )
        with self._catalog_lock:
            epoch = self.router.epoch + 1
            self.router.set_bands(edges, epoch)
            self.metrics.counter("rebalance_band_updates").increment()
        return epoch

    def begin_migration(
        self,
        oid: int,
        dest: int,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> MigrationState:
        """Copy phase: open a fenced migration of ``oid`` to ``dest``.

        On return the object is resident on both shards and the
        returned state is the fencing token for the cutover.  Any
        failure (other than an injected process crash) rolls the copy
        back so no partial destination copy survives.
        """
        if not 0 <= dest < self.shard_count:
            raise ValueError(f"destination shard {dest} out of range")
        hook = crash_hook or _no_hook
        with self.metrics.span("migrate_begin") as span:
            with self._catalog_lock:
                source = self._owner.get(oid)
            if source is None:
                raise ObjectNotFoundError(f"object {oid} is not registered")
            held = sorted({source, dest})
            for shard in held:
                self._locks[shard].acquire()
            try:
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
                    motion = self._shards[source].motion_of(oid)
                    before = self._shards[dest].io_snapshot()
                    self._shards[dest].register(
                        oid, motion.y0, motion.v, motion.t0
                    )
                    span.add_shard_io(
                        dest, self._shards[dest].io_delta_since(before)
                    )
                    self._copy_history(source, dest, oid)
                    hook("rebalance.copy_sent")
                except SimulatedCrashError:
                    raise
                except Exception:
                    with self._catalog_lock:
                        try:
                            self._ownership.abort_migration(state)
                        except StaleMigrationError:
                            pass
                    if oid in self._shards[dest]:
                        self._shards[dest].deregister(oid)
                    raise
                return state
            finally:
                for shard in reversed(held):
                    self._locks[shard].release()

    def commit_migration(
        self,
        state: MigrationState,
        crash_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Cutover: fenced ownership transfer to the destination."""
        hook = crash_hook or _no_hook
        with self.metrics.span("migrate_commit") as span:
            held = sorted({state.source, state.dest})
            for shard in held:
                self._locks[shard].acquire()
            try:
                with self._catalog_lock:
                    if not self._ownership.admits(state.oid, state.epoch):
                        raise StaleMigrationError(
                            f"cutover of {state} rejected: epoch is stale"
                        )
                hook("rebalance.pre_commit")
                self._append_commit_records(state, hook)
                before = self._shards[state.source].io_snapshot()
                self._shards[state.source].deregister(state.oid)
                span.add_shard_io(
                    state.source,
                    self._shards[state.source].io_delta_since(before),
                )
                hook("rebalance.post_commit")
                with self._catalog_lock:
                    self._ownership.commit_migration(state)
            finally:
                for shard in reversed(held):
                    self._locks[shard].release()

    def abort_migration(self, state: MigrationState) -> None:
        """Fenced abort: drop the destination copy, keep the source."""
        with self.metrics.span("migrate_abort") as span:
            held = sorted({state.source, state.dest})
            for shard in held:
                self._locks[shard].acquire()
            try:
                with self._catalog_lock:
                    if not self._ownership.admits(state.oid, state.epoch):
                        raise StaleMigrationError(
                            f"abort of {state} rejected: epoch is stale"
                        )
                dst = self._shards[state.dest]
                if state.oid in dst:
                    before = dst.io_snapshot()
                    dst.deregister(state.oid)
                    span.add_shard_io(
                        state.dest, dst.io_delta_since(before)
                    )
                with self._catalog_lock:
                    self._ownership.abort_migration(state)
            finally:
                for shard in reversed(held):
                    self._locks[shard].release()

    def _append_commit_records(self, state: MigrationState, hook) -> None:
        """Durability seam for the cutover's two WAL appends.

        The base service has no WAL, so only the protocol's crash
        point between the two appends is observed; the fault-tolerant
        subclass appends the fenced ``migrate_commit`` records to both
        participants' logs here.
        """
        hook("rebalance.between_commits")

    def _copy_history(self, source: int, dest: int, oid: int) -> None:
        """Ship the object's §7 archive with the copy (both ends must
        keep history; otherwise there is nothing to move)."""
        src_db = self._shards[source]
        dst_db = self._shards[dest]
        if not (src_db.history_enabled and dst_db.history_enabled):
            return
        versions = src_db.history_of(oid)
        if versions:
            dst_db.restore_history(versions)

    # -- queries ----------------------------------------------------------------

    def within(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """MOR query, fanned out; per-shard answers union (disjoint)."""
        with self.metrics.span("within") as span:
            result: Set[int] = set()
            for i, shard in enumerate(self._shards):
                with self._locks[i]:
                    before = shard.io_snapshot()
                    result |= shard.within(y1, y2, t1, t2)
                    span.add_shard_io(i, shard.io_delta_since(before))
            return result

    def snapshot_at(self, y1: float, y2: float, t: float) -> Set[int]:
        """Instant query, fanned out and unioned."""
        with self.metrics.span("snapshot_at") as span:
            result: Set[int] = set()
            for i, shard in enumerate(self._shards):
                with self._locks[i]:
                    before = shard.io_snapshot()
                    result |= shard.snapshot_at(y1, y2, t)
                    span.add_shard_io(i, shard.io_delta_since(before))
            return result

    def nearest(
        self, y: float, t: float, k: int = 1
    ) -> List[Tuple[int, float]]:
        """Global ``k``-NN: per-shard exact top-``k``, then re-rank.

        Tie-break: equal distances order by ascending object id — the
        same total order :func:`repro.extensions.neighbors.knn_at`
        uses, so results are byte-identical to a single database.  The
        merge is keyed by oid: an object resident on two shards (a
        migration's double-write window) contributes one candidate,
        not two.
        """
        with self.metrics.span("nearest") as span:
            best: Dict[int, float] = {}
            for i, shard in enumerate(self._shards):
                with self._locks[i]:
                    before = shard.io_snapshot()
                    for oid, dist in shard.nearest(y, t, k):
                        best[oid] = dist
                    span.add_shard_io(i, shard.io_delta_since(before))
            ranked = sorted(best.items(), key=lambda pair: (pair[1], pair[0]))
            return ranked[:k]

    def proximity_pairs(
        self, d: float, t1: float, t2: float
    ) -> Set[Tuple[int, int]]:
        """All unordered pairs coming within ``d`` during the window.

        Locks every shard (ascending) for the duration: the join must
        see one consistent population across shards.  Within-shard
        pairs come from each shard's self-join; cross-shard pairs from
        directed candidate exchange between each shard pair, visited
        once (``i < j``).  Self-pairs are filtered from the exchange:
        an object resident on two shards (a migration in flight)
        would otherwise pair with its own copy.
        """
        with self.metrics.span("proximity_pairs") as span:
            for lock in self._locks:
                lock.acquire()
            try:
                pairs: Set[Tuple[int, int]] = set()
                for i, shard in enumerate(self._shards):
                    before = shard.io_snapshot()
                    pairs |= shard.proximity_pairs(d, t1, t2)
                    outer = shard.objects()
                    span.add_shard_io(i, shard.io_delta_since(before))
                    for j in range(i + 1, len(self._shards)):
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
                return pairs
            finally:
                for lock in reversed(self._locks):
                    lock.release()

    def query_past(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """Historical MOR query (requires ``keep_history=True``)."""
        with self.metrics.span("query_past") as span:
            result: Set[int] = set()
            for i, shard in enumerate(self._shards):
                with self._locks[i]:
                    before = shard.io_snapshot()
                    result |= shard.query_past(y1, y2, t1, t2)
                    span.add_shard_io(i, shard.io_delta_since(before))
            return result

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
        (``serve-bench --batch``) to compare the two legs, not I/O
        counts.
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
                    # Keyed merge: replicas (the fault-tolerant
                    # subclass reuses this path) collapse by oid
                    # before the global (distance, oid) re-rank.
                    best: Dict[int, float] = {}
                    for answers in per_shard:
                        for oid, dist in answers[j]:
                            best[oid] = dist
                    ranked = sorted(
                        best.items(), key=lambda p: (p[1], p[0])
                    )
                    results[slot] = ranked[: op.k]
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
