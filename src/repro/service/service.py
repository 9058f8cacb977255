"""A sharded, concurrent query service over :class:`MotionDatabase`.

One :class:`~repro.engine.MotionDatabase` serves one caller at a time.
:class:`ShardedMotionService` is the scaling layer the ROADMAP asks
for: the object population is partitioned across ``k`` independent
shards (each a full ``MotionDatabase`` with its own disks and
buffers), updates route to the owning shard under its lock, and
queries fan out to one member of each replica group (every shard here;
every live shard for ``query_past``) and merge:

* ``within`` / ``snapshot_at`` / ``query_past`` — per-shard answers
  union (an object's copies on its replicas collapse);
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
and is only ever taken innermost; each shard has a reentrant lock,
taken in ascending shard order when an operation needs more than one.
A batch holds every shard lock; a scalar verb holds the locks of the
shards its plan names (motion-sensitive routing can move an object
between shards on update), so writers of different shards overlap.
Queries lock one shard at a time, so readers of different shards
proceed in parallel with writers of others.  The paper's
time-moves-forward discipline holds per shard: each shard's ``now``
only advances.

Every read is a query set — a :meth:`~ShardedMotionService.
query_batch`, or a scalar read verb's one op — answered by one
function, :meth:`ShardedMotionService._answer_set`: a verb's set is
never cached or pooled and pages each shard through the engine's verb
of the same name; a batch uses the cache, the pool and the column
kernels.  Every write is a write set — a batch, or a scalar verb's one op —
staged, applied and committed by one function,
:meth:`ShardedMotionService._apply_set`.  A batch's plain rows (a new
object's register, a report that stays in its replica group, a
deregister, on an oid the batch names once) are placed by one column
pass; every other op is placed by one function,
:meth:`ShardedMotionService._plan_write`.  Every verb is written once,
here, against three seams whose forms in this class are trivial:
``replica_group`` (an object lives on its primary only), the shard
access ``_answerable`` / ``_apply_sub_batch`` / ``_stale`` (every
shard is up, call the database, record the I/O; every shard takes
every write), and the ``_log`` / ``_degrade`` pair (no log; answers
are always complete).  Every shard access — a walked step, a shard's
plain rows, a read lane — is admitted by the shard's up state
(``_answerable``), so a write set or a query set under faults runs
the same plan as a healthy one, minus the shards that are down.  This
class is the ``replication = 1``, no-log, never-down case of
:class:`~repro.service.replication.FaultTolerantMotionService`, which
overrides exactly those seams.

Every public operation runs inside a metrics span; see
:meth:`service_stats` for the snapshot format.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from itertools import repeat
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.model import LinearMotion1D, MotionModel, Terrain1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
)
from repro.indexes.base import MobileIndex1D
from repro.io_sim.stats import combine_snapshots
from repro.service.metrics import MetricsRegistry
from repro.service.parallel import WorkerCrashError, WorkerPool
from repro.service.sharding import (
    BandRouter,
    HashRouter,
    ShardRouter,
    VelocityRouter,
)
from repro.vector.cache import QueryResultCache, copy_result
from repro.vector.columns import WriteColumns
from repro.vector.ops import (
    _DELETE,
    _INSERT,
    QUERY_VERBS,
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


#: What :meth:`ShardedMotionService._plan_write` returns: ``(steps,
#: cleanup, owner)`` — see its docstring.  The steps come
#: in runs ``(shards, sub-op)``, one step per shard of a run, in
#: ascending shard order.
_Run = Tuple[Tuple[int, ...], WriteOp]
_WritePlan = Tuple[
    Tuple[_Run, ...],
    Tuple[_Run, ...],
    Optional[int],
]

#: What :meth:`ShardedMotionService._stage_batch` returns: per shard
#: ``(rows, sub-ops or None, cleanup rows)``; the acknowledged walked
#: rows and their owners; the acknowledged plain rows and every row's
#: primary (``None`` for a one-op set, which has no plain row).
_Staging = Tuple[
    Dict[int, Tuple[Sequence[int], Optional[List[WriteOp]], List[int]]],
    List[int],
    List[Optional[int]],
    np.ndarray,
    Optional[np.ndarray],
]

#: WriteOp class → the scalar verb (metrics span, the name a refused
#: write's error carries) that applies it.
_VERBS: Dict[type, str] = {
    RegisterOp: "register",
    ReportOp: "report",
    DeregisterOp: "deregister",
}


def _no_live_replica(
    name: str, oid: int, shards: List[int]
) -> ShardUnavailableError:
    """What a write none of whose planned ``shards`` took fails with."""
    return ShardUnavailableError(
        f"{name}({oid}): no live replica in {shards}"
    )


#: No rows: the plain rows of a one-op set.
_NO_ROWS = np.empty(0, dtype=np.int64)


def _keys_at(batch: WriteColumns, rows: np.ndarray) -> Sequence[int]:
    """The oids of the ascending ``rows`` of ``batch``: its own ``keys``
    when that is every row (a load indexes nothing)."""
    keys = batch.keys
    if len(rows) == len(keys):
        return keys
    return list(map(keys.__getitem__, rows.tolist()))


def _at(column: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``column`` at the ascending ``rows``: itself, uncopied, when that
    is every row."""
    return column if len(rows) == len(column) else column[rows]


def _apply_op(db: MotionDatabase, op: WriteOp) -> None:
    """One planned sub-op through the database's scalar verbs."""
    if isinstance(op, RegisterOp):
        db.register(op.oid, op.y0, op.v, op.t0)
    elif isinstance(op, ReportOp):
        db.report(op.oid, op.y0, op.v, op.t0)
    else:
        db.deregister(op.oid)


class _Past(Within):
    """:meth:`ShardedMotionService.query_past`'s op: no batch kernel
    reads history, so ``query_batch`` does not take it."""


#: Read-op class → the scalar verb answering it: the metrics span, the
#: engine verb a one-op set's shard accesses call, the name a degraded
#: answer's warning carries.  The engine's paged verb of the same name
#: takes the op's fields, in order, as its arguments.
_READ_VERBS: Dict[type, str] = {**QUERY_VERBS, _Past: "query_past"}


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
    cache_capacity:
        Entries of the memoizing :class:`QueryResultCache` consulted
        by :meth:`query_batch` (see that class for the invalidation
        rules).  ``cache_capacity=0`` disables the cache.
    workers / pool:
        The multi-process execution tier.  ``workers=N`` (N >= 1)
        spawns a service-owned :class:`~repro.service.parallel.
        WorkerPool` of N processes; alternatively pass an existing
        ``pool`` to share one across services (the caller keeps
        ownership).  Either way each shard's object table moves
        into shared memory (:class:`~repro.vector.shm.
        SharedMotionColumns`) so workers read rows without pickling,
        and :meth:`query_batch` fans per-shard sub-batches over the
        pool.  ``workers=0`` (default) keeps the in-process path —
        pooled answers are byte-identical to it by construction
        (same :func:`~repro.vector.evaluate.evaluate_arrays`
        dispatch either way).
    """

    #: A batch with fewer ops walks every row through
    #: :meth:`_plan_write`: below it the column pass's fixed cost (a few
    #: dozen numpy calls) exceeds the per-op plans it saves.
    #: Measured by ``benchmarks/plan_breakeven.py`` (ratios; re-measure
    #: before moving it).  A one-op set always walks.
    _COLUMNS_MIN_SET = 40

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
            # Shard tables move into shared memory so pool workers
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
        self._groups: Dict[int, Tuple[int, ...]] = {}
        #: ``(primaries, shards)`` → :meth:`_cover` of them.
        self._covers: Dict[Tuple[Tuple[int, ...], ...], Tuple[int, ...]] = {}
        #: ``(owner, target)`` → the shards a move keeps, enters, leaves.
        self._moves: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
        #: ``_members[shard, p]``: whether primary ``p``'s replica group
        #: holds ``shard`` (built on first use, from :meth:`_group`).
        self._members: Optional[np.ndarray] = None
        self._catalog_lock = threading.RLock()
        #: The catalog: oid → owning (primary) shard.
        self._owner: Dict[int, int] = {}
        self._update_listeners: List[Callable[[WriteColumns], None]] = []
        self.query_cache: Optional[QueryResultCache] = None
        if cache_capacity > 0:
            self.query_cache = QueryResultCache(
                metrics=self.metrics, capacity=cache_capacity
            )
            self.attach_update_listener(self.query_cache.on_update_batch)

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

        A no-op for plain in-process tables; for shared columns this
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

        This is the catalog's answer, never a route recompute: once
        registered, an object's placement is whatever the catalog says,
        and only a write set's cross-group move (a speed-crossing
        report, or :meth:`rehome` after a band re-cut) changes it.
        """
        with self._catalog_lock:
            shard = self._owner.get(oid)
        if shard is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        return shard

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
        self, listener: Callable[[WriteColumns], None]
    ) -> None:
        """Call ``listener(writes)`` once per acknowledged write set:
        ``writes`` is the :class:`~repro.vector.columns.WriteColumns` of
        the acknowledged ops in submission order — the op of a scalar
        verb, the acknowledged ops of an :meth:`apply_batch` (a batch
        that acknowledges nothing announces nothing), the restored
        population of a cold restore.  An op is announced as submitted:
        a report that moves its object between replica groups is one
        ``ReportOp``, and so is each object a :meth:`rehome` moves.
        Delivery happens while the shard locks are still held, so
        per-object notifications arrive in apply order — the
        guarantee :class:`~repro.service.continuous.SubscriptionManager`
        builds on.  Listeners therefore must be fast, must not raise,
        and must never call back into the service.
        """
        self._update_listeners.append(listener)

    def detach_update_listener(self, listener) -> None:
        self._update_listeners.remove(listener)

    def _notify(self, writes: Sequence[WriteOp]) -> None:
        """Announce one acknowledged write set to every listener."""
        if self._update_listeners and len(writes):
            writes = WriteColumns.of(writes)
            for listener in list(self._update_listeners):
                listener(writes)

    # -- seams (trivial here; the fault-tolerant subclass overrides them) --------

    def replica_group(self, primary: int) -> List[int]:
        """The shards holding objects whose primary is ``primary``."""
        return [primary]

    def _group(self, primary: int) -> Tuple[int, ...]:
        """:meth:`replica_group` in ascending order, as the write plan
        walks it — worked out once per primary (the topology is fixed
        for the service's life)."""
        group = self._groups.get(primary)
        if group is None:
            group = tuple(sorted(set(self.replica_group(primary))))
            self._groups[primary] = group
        return group

    def _dark(self, answered: Set[int]) -> List[int]:
        """The primaries whose replica group has no member in
        ``answered``: an answer is complete iff there is none."""
        return [
            p for p in range(self.shard_count)
            if answered.isdisjoint(self._group(p))
        ]

    def _cover(
        self, primaries: Sequence[int], shards: Sequence[int]
    ) -> Tuple[int, ...]:
        """The fewest of the ascending ``shards`` holding a member of
        each of the ``primaries``' groups (a group none holds stays
        out), in ascending order: picked greedily by groups gained,
        ties to the lowest shard id.  Worked out once per argument
        pair, as :meth:`_group` is."""
        key = (tuple(primaries), tuple(shards))
        cover = self._covers.get(key)
        if cover is None:
            todo = [self._group(p) for p in primaries]
            chosen = []
            while todo:
                best, gain = None, 0
                for s in shards:
                    n = sum(s in group for group in todo)
                    if n > gain:
                        best, gain = s, n
                if best is None:
                    break
                chosen.append(best)
                todo = [group for group in todo if best not in group]
            cover = self._covers[key] = tuple(sorted(chosen))
        return cover

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
        """Whether ``shard`` is up: every shard access of every read
        and of every write set asks it just before it happens, and a
        down shard is skipped.  In this class every shard is up."""
        return True

    def _apply_sub_batch(
        self,
        shard: int,
        sub_ops: Sequence[WriteOp],
        span,
        per_op: bool,
    ) -> bool:
        """Hand one shard its share of a write set (the set's locks held):
        the planned sub-ops staging admitted — a batch's as its own
        rows, a scalar verb's as they are.  ``True`` iff the shard took
        them all.

        Here: one grouped :meth:`MotionDatabase.apply_batch`, or with
        ``per_op`` the engine's per-op verbs; the shard always takes
        them.
        """
        db = self._shards[shard]
        before = db.io_snapshot()
        if per_op:
            for sub_op in sub_ops:
                _apply_op(db, sub_op)
            errors = ()
        else:
            errors = db.apply_batch(sub_ops)
        span.add_shard_io(shard, db.io_delta_since(before))
        for sub_op, error in zip(sub_ops, errors):
            if error is not None:
                # The catalog admitted the op under the set's locks, so a
                # shard-level rejection means catalog/shard
                # divergence — never mask it.
                raise RuntimeError(
                    f"shard {shard} rejected catalog-admitted op "
                    f"{sub_op!r}"
                ) from error
        return True

    def _stale(self, shard: int, reason: str) -> None:
        """Take a shard whose contents no longer match the catalog out
        of service.  Here every shard takes every write, so none ever
        is."""
        raise RuntimeError(f"shard {shard} {reason}")

    def _log(self, shard: int, kind: str, **fields: object) -> bool:
        """Log a marker record (a band change) on one shard; ``True``
        iff the shard is live to take it."""
        return True

    def _degrade(self, name: str, value, answered: Set[int]):
        """The answer to return when only ``answered`` shards replied."""
        return value

    def _commit_write(self, op: WriteOp, owner: Optional[int]) -> None:
        """Catalog commit of one applied walked write (catalog lock
        held): the op's object now belongs to ``owner``, or to nobody."""
        if owner is None:
            self._owner.pop(op.oid, None)
        else:
            self._owner[op.oid] = owner

    def _commit_rows(
        self,
        batch: WriteColumns,
        put: np.ndarray,
        primary: np.ndarray,
        gone: np.ndarray,
    ) -> None:
        """Catalog commit of a write set's applied plain rows in one pass
        (catalog lock held; no oid twice): the object of each row in
        ``put`` now belongs to the row's ``primary``, those of rows
        ``gone`` to nobody."""
        self._owner.update(zip(
            _keys_at(batch, put), _at(primary, put).tolist()
        ))
        for oid in _keys_at(batch, gone):
            self._owner.pop(oid, None)

    def _current_motion(self, oid: int, shard: int) -> LinearMotion1D:
        """The motion :meth:`rehome` re-reports: what owner ``shard``
        holds."""
        return self._shards[shard].motion_of(oid)

    # -- updates ----------------------------------------------------------------

    def _plan_write(
        self,
        op: WriteOp,
        owner: Optional[int],
        admitted: bool,
        target: Optional[int],
    ) -> _WritePlan:
        """Decide everything placement means for one write operation.

        The one place an update's "which structure owns this object"
        decision is made for a walked op (catalog lock held; nothing is
        mutated) — a batch's plain rows take the same decision as
        columns (:meth:`_plain_rows`) — and only catalog work:
        ``owner`` is the object's catalog owner as the plan sees it,
        ``admitted`` the admission verdict on the op's motion and
        ``target`` the shard its route names (read only for an admitted
        motion) — the write set's admission mask row
        (:meth:`~repro.core.model.MotionModel.admit_mask`) and route
        vector row (:meth:`~repro.service.sharding.ShardRouter.
        route_many`), for a one-op set their scalar forms.  Raises the
        contained rejections — duplicate register,
        unknown object, inadmissible motion (named by the scalar
        :meth:`~repro.core.model.MotionModel.check_admissible`) —
        before any shard is touched, and otherwise returns ``(steps,
        cleanup, owner)``:

        * ``steps`` — runs ``(shards, sub-op)`` in apply order, over
          the replica group that must take the write; it succeeds iff
          at least one lands;
        * ``cleanup`` — the old copies a cross-group move drops, only
          after a step landed (insert-new then delete-old, so a
          failure never loses the object);
        * ``owner`` — the catalog owner once applied (``None``: gone).

        The listeners are told the op itself (:meth:`_notify`), so the
        plan builds no motion for an admitted one.

        Delete sub-ops name every shard that *may* hold a copy;
        staging skips the ones that do not (a copy whose write never
        landed there).
        """
        oid = op.oid
        kind = type(op)
        if kind is RegisterOp:
            if owner is not None:
                raise InvalidMotionError(
                    f"object {oid} is already registered; use report()"
                )
        elif owner is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        if kind is DeregisterOp:
            return ((self._group(owner), op),), (), None
        if not admitted:
            self._model.raise_refusal(LinearMotion1D(op.y0, op.v, op.t0), oid)
        if owner is not None and not self.router.motion_sensitive:
            target = owner
        if owner is None or target == owner:
            return ((self._group(target), op),), (), target
        move = self._moves.get((owner, target))
        if move is None:
            new, old = set(self._group(target)), set(self._group(owner))
            move = self._moves[owner, target] = tuple(
                tuple(sorted(shards))
                for shards in (old & new, new - old, old - new)
            )
        keep, enter, leave = move
        steps = (
            (keep, op), (enter, RegisterOp(oid, op.y0, op.v, op.t0)),
        )
        return steps, ((leave, DeregisterOp(oid)),), target

    def _write(self, op: WriteOp) -> None:
        """A scalar verb: the one-op write set ``op``, staged and
        committed as :meth:`apply_batch` stages and commits a batch
        (:meth:`_apply_set` with ``per_op``); the op's rejection, if
        any, is raised."""
        with self.metrics.span(_VERBS[type(op)]) as span:
            error, = self._apply_set(WriteColumns((op,)), span, per_op=True)
            if error is not None:
                raise error

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object to its replica group; rejects duplicates."""
        self._write(RegisterOp(oid, y0, v, t0))

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Process a motion update, moving the object between replica
        groups when routing says so (the new group is written before
        the old copies are dropped, so a failure never loses the
        object)."""
        self._write(ReportOp(oid, y0, v, t0))

    def deregister(self, oid: int) -> None:
        """Remove an object from its replica group."""
        self._write(DeregisterOp(oid))

    def location_of(self, oid: int, t: float) -> float:
        """Extrapolated location of one object at time ``t``, from the
        first member of its replica group that can serve."""
        group = self.replica_group(self.shard_of(oid))
        with self.metrics.span("location_of") as span:
            for shard in group:
                with self._locks[shard]:
                    if not self._answerable(shard):
                        continue
                    db = self._shards[shard]
                    before = db.io_snapshot()
                    location = db.location_of(oid, t)
                    span.add_shard_io(shard, db.io_delta_since(before))
                    return location
            raise ShardUnavailableError(
                f"object {oid}: no live replica in group {group}"
            )

    # -- batched writes ----------------------------------------------------------

    def apply_batch(self, ops: Sequence[WriteOp]) -> List[Optional[Exception]]:
        """Apply a batch of write operations with one visit per shard.

        Accepts the :mod:`repro.vector.ops` write vocabulary
        (``RegisterOp`` / ``ReportOp`` / ``DeregisterOp``) and returns
        a list parallel to ``ops``: ``None`` for an applied operation,
        or the rejection exception (same types and messages as the
        scalar methods raise) for a contained per-operation failure —
        a rejected operation never disturbs its neighbours.

        The batch is one critical section: every shard lock is taken
        (ascending, the :meth:`proximity_pairs` discipline), operations
        are planned against the catalog as if **in submission order**
        and grouped by target shard, then each shard absorbs its group
        through one :meth:`MotionDatabase.apply_batch` call.  Grouping
        per shard is safe because writes to different objects commute
        and same-object operations always group onto the same shard in
        order (a motion-sensitive cross-shard move splits into a
        source delete and a destination insert on two different
        databases, which also commute).  Listeners are told once per
        batch, the acknowledged ops' rows in submission order
        (:meth:`_notify`), before any lock is released, so readers
        never observe a half-applied batch and subscriptions keep
        their per-object apply-order guarantee.  Final state and
        answers are identical to calling the scalar methods in the same
        order.

        A scalar verb is the one-op set of this plan
        (:meth:`_apply_set`), holding only the locks of the shards its
        plan names.  Each planned step is admitted in
        submission order, cleanups after the op's steps: a delete of a
        copy that never landed is skipped, then the shard's up state
        (:meth:`_answerable`) decides.  An op none of whose steps is
        admitted commits nothing and gets
        :class:`ShardUnavailableError`; each shard then applies exactly
        the sub-ops it admitted, which is the record sequence the
        scalar loop leaves in its log.  The catalog commits an op only
        once a shard took it.

        The batch is columns from here down (:class:`~repro.vector.
        columns.WriteColumns`, converted once, its kind column
        included), and so is its plan (:meth:`_stage_batch`): one
        admission mask, one route vector, one owner column and each
        shard's residency decide every *plain* op — a new object's
        admitted register, an admitted report that stays in its replica
        group, a deregister of a registered object — on an oid the batch
        names once; each shard's plain rows are one array, admitted at
        once by the shard's up state, and the catalog commits them in
        one pass (:meth:`_commit_rows`).  Only the ops on a repeated
        oid, the refused ones and the cross-group moves are walked
        through :meth:`_plan_write` in submission order, merged into
        their shards' rows by row number.  A batch with fewer than
        :data:`_COLUMNS_MIN_SET` ops walks every op: there the column
        pass costs more than it saves.  A shard takes its sub-ops as
        the batch's own rows.
        """
        with self.metrics.span("apply_batch") as span:
            return self._apply_set(WriteColumns(ops), span, per_op=False)

    def _apply_set(
        self, batch: WriteColumns, span, per_op: bool
    ) -> List[Optional[Exception]]:
        """Apply one write set: a batch, or with ``per_op`` a scalar
        verb's one op — the one switch between the two, read here.  A
        one-op set carries its ``screen`` (:meth:`_admit_one`) down,
        holds only the locks of the shards its plan names
        (:meth:`_plan_locks`), and hands each shard its sub-ops for the
        engine's per-op verbs.  A batch carries no screen, holds every
        shard lock and hands each shard a ``take`` of its rows.  If the
        one op's claim moved between choosing its locks and holding
        them, it is staged once more, freshly screened, under every
        lock.
        """
        outcomes: List[Optional[Exception]] = [None] * len(batch)
        screen = self._admit_one(batch[0]) if per_op else None
        held = self._plan_locks(batch[0], screen) if per_op else None
        while not self._apply_under(held, batch, outcomes, span, screen):
            held, screen = None, self._admit_one(batch[0])
        return outcomes

    def _plan_locks(
        self, op: WriteOp, screen: Tuple[List[bool], List]
    ) -> FrozenSet[int]:
        """The shard locks a one-op set stages under: those its plan
        names now, none if the plan rejects it.  A register of a new
        object under a motion-sensitive router takes every lock: two
        registers of one oid may route to disjoint groups, and only a
        shared lock makes the second plan against the first's commit.
        """
        (admitted,), (target,) = screen
        with self._catalog_lock:
            owner = self._owner.get(op.oid)
            try:
                steps, cleanup, _ = self._plan_write(
                    op, owner, admitted, target
                )
            except (InvalidMotionError, ObjectNotFoundError):
                return frozenset()
        if owner is None and self.router.motion_sensitive:
            return frozenset(range(self.shard_count))
        return frozenset(s for run, _ in steps + cleanup for s in run)

    def _apply_under(
        self,
        held: Optional[FrozenSet[int]],
        batch: WriteColumns,
        outcomes: List[Optional[Exception]],
        span,
        screen: Optional[Tuple[List[bool], List]],
    ) -> bool:
        """Stage and apply ``batch`` holding the ``held`` shard locks
        (``None``: every one); ``False``, with nothing staged, iff a
        plan names a shard outside ``held``.

        Shards holding only cleanups apply last, so a one-op move
        writes its new group before it drops the old copies.  A shard
        that fails to take its group (:meth:`_unlogged`)
        un-acknowledges the ops it was the last hope of.  The ops some
        shard took are committed — the walked ones by
        :meth:`_commit_write` in submission order, the plain ones in one
        :meth:`_commit_rows` (their oids are the batch's once-named
        ones, so the two commute) — and announced (:meth:`_notify`)
        before any lock is released.
        """
        per_op = screen is not None
        with self._holding(range(self.shard_count) if held is None else held):
            with self._catalog_lock:
                staging = self._stage_batch(batch, outcomes, held, screen)
            if staging is None:
                return False
            staged, acked, owners, plain, primary = staging
            took, missed = [], []
            # Shards whose rows are all cleanups go last.
            for shard in sorted(staged, key=lambda s: (
                len(staged[s][2]) == len(staged[s][0]), s
            )):
                # Popped, so a group is released once it applied.
                rows, sub_ops, cleanups = staged.pop(shard)
                if not per_op:
                    sub_ops = batch.take(rows, sub_ops)
                (took if self._apply_sub_batch(shard, sub_ops, span, per_op)
                 else missed).append((shard, rows, cleanups))
            lost: Set[int] = set()
            if missed:
                lost = self._unlogged(batch, outcomes, took, missed)
            took = None  # its rows go before the catalog grows
            if lost:
                plain = plain[~np.isin(plain, list(lost))]
            with self._catalog_lock:
                for i, owner in zip(acked, owners):
                    if i not in lost:
                        self._commit_write(batch[i], owner)
                if len(plain):
                    gone = batch.kind[plain] == _DELETE
                    put = plain[~gone] if gone.any() else plain
                    self._commit_rows(batch, put, primary, plain[gone])
            if lost:
                acked = [i for i in acked if i not in lost]
            if len(plain):
                if acked:
                    plain = np.union1d(plain, acked)
                if len(plain) < len(batch):
                    batch = batch.take(plain)
            elif len(acked) < len(batch):
                batch = batch.take(acked)
            self._notify(batch)
        return True

    def _unlogged(
        self,
        batch: WriteColumns,
        outcomes: List[Optional[Exception]],
        took: List[Tuple[int, Sequence[int], List[int]]],
        missed: List[Tuple[int, Sequence[int], List[int]]],
    ) -> Set[int]:
        """The staged ops no shard took, once the ``missed`` shards
        failed to take their groups (``(shard, rows, cleanup rows)``
        each, like the ``took`` ones): each gets the
        :class:`ShardUnavailableError` of an op no replica admitted,
        and a shard that dropped one's old copy no longer matches the
        catalog, so it goes stale (:meth:`_stale`)."""

        def steps(rows, cleanups):
            skip = set(cleanups)
            return (row for row in np.asarray(rows).tolist()
                    if row not in skip)

        logged: Set[int] = set()
        for _, rows, cleanups in took:
            logged.update(steps(rows, cleanups))
        lost: Dict[int, List[int]] = {}
        for shard, rows, cleanups in missed:
            for row in steps(rows, cleanups):
                if row not in logged:
                    lost.setdefault(row, []).append(shard)
        for row, shards in lost.items():
            op = batch[row]
            outcomes[row] = _no_live_replica(_VERBS[type(op)], op.oid, shards)
        for shard, _, cleanups in took:
            if not lost.keys().isdisjoint(cleanups):
                self._stale(shard, "dropped the old copy of a move no "
                                   "replica logged")
        return set(lost)

    def _admit_one(self, op: WriteOp) -> Tuple[List[bool], List]:
        """The admission mask and route vector of a one-op set, by
        their scalar forms: the references both are held to, and several
        times cheaper than numpy calls on one-row arrays."""
        if type(op) is not DeregisterOp:
            motion = LinearMotion1D(op.y0, op.v, op.t0)
            try:
                self._model.check_admissible(motion, op.oid)
            except InvalidMotionError:
                pass
            else:
                return [True], [self.router.route(op.oid, motion)]
        return [False], [None]

    def _stage_batch(
        self,
        batch: WriteColumns,
        outcomes: List[Optional[Exception]],
        held: Optional[FrozenSet[int]],
        screen: Optional[Tuple[List[bool], List]],
    ) -> Optional[_Staging]:
        """Plan a write set under the ``held`` shard locks (``None``:
        every one) and admit its steps; fills ``outcomes`` with the
        rejections and commits nothing.  ``None``, with nothing staged,
        if a plan names a shard outside ``held``.

        A batch with at least :data:`_COLUMNS_MIN_SET` ops is planned
        as columns first (:meth:`_plain_rows`): its admission mask,
        route vector and owner column decide every *plain* row — a new
        object's admitted register, an admitted report that stays in its
        replica group, a deregister of a registered object — on an oid
        the batch names once, and each live shard's plain rows are one
        array, in submission order, admitted at once by the shard's up
        state (:meth:`_answerable`), which no shard changes while a set
        stages under every shard lock.  Every other row — every row of
        a batch with fewer ops, and a one-op set's one op (with
        ``screen``'s verdict and route) — is *walked*: planned by
        :meth:`_plan_write` in submission order, with the owner and
        shard residency the earlier ops of a repeated oid leave, and
        each of its steps admitted by the same up state.  That is the
        scalar loop's plan.

        Returns per admitting shard the rows of its sub-ops in
        submission order, the sub-ops (``None``: the rows' own ops) and
        the rows that are cleanups; then the acknowledged walked rows
        with their owners once applied, and the acknowledged plain rows
        with the primary of each row.
        """
        n, ops = len(batch), batch.ops
        # An oid the batch names twice is walked: a later op plans
        # against the owner the earlier one leaves, and a register →
        # deregister pair on one shard against the residency the earlier
        # sub-op will have produced.  Both maps live only while the
        # batch is planned.
        repeated = batch.repeated()
        plain = primary = None
        if screen is not None:
            walked, (admitted, targets) = [0], screen
            if admitted[0]:
                # Routed again under the set's locks: a band re-cut
                # since the screen must not place the op by the old cut
                # (a plan it moves off the held locks restages).
                op = batch[0]
                targets = [self.router.route(
                    op.oid, LinearMotion1D(op.y0, op.v, op.t0)
                )]
        else:
            admitted = self._model.admit_mask(
                batch.oid, batch.y0, batch.v, batch.t0
            )
            targets = self.router.route_many(batch.oid, batch.v).astype(
                np.int64
            )
            if n < self._COLUMNS_MIN_SET:
                walked = range(n)
            else:
                plain, primary, runs = self._plain_rows(
                    batch, admitted, targets, repeated
                )
                walked = np.flatnonzero(~plain)
                admitted, targets = admitted[walked], targets[walked]
                walked = walked.tolist()
            admitted, targets = admitted.tolist(), targets.tolist()
        claims: Dict[int, Optional[int]] = {}
        pending: Dict[Tuple[int, int], bool] = {}
        steps_of: Dict[int, Tuple[List[int], List[WriteOp], List[int]]] = {}
        owners: List[Optional[int]] = []
        acked: List[int] = []
        answerable, shards = self._answerable, self._shards
        owner_of = self._owner.get

        def admit(
            shard: int, sub_op: WriteOp, row: int, cleanup: bool
        ) -> bool:
            """Stage one planned step of ``row`` iff it lands."""
            deleting = type(sub_op) is DeregisterOp
            if deleting and not pending.get(
                (shard, sub_op.oid), sub_op.oid in shards[shard]
            ):
                return False  # copy never landed here
            if not answerable(shard):
                return False
            if sub_op.oid in repeated and (
                deleting or type(sub_op) is RegisterOp
            ):
                pending[shard, sub_op.oid] = not deleting
            slot = steps_of.get(shard)
            if slot is None:
                slot = steps_of[shard] = ([], [], [])
            rows, sub_ops, cleanups = slot
            rows.append(row)
            sub_ops.append(sub_op)
            if cleanup:
                cleanups.append(row)
            return True

        for i, verdict, target in zip(walked, admitted, targets):
            op = ops[i]
            oid = op.oid
            try:
                steps, cleanup, owner = self._plan_write(
                    op, claims[oid] if oid in claims else owner_of(oid),
                    verdict, target,
                )
            except (InvalidMotionError, ObjectNotFoundError) as exc:
                outcomes[i] = exc
                continue
            if held is not None and not held.issuperset(
                shard for run, _ in steps + cleanup for shard in run
            ):
                return None
            landed = False
            for run, sub_op in steps:
                for shard in run:
                    landed |= admit(shard, sub_op, i, False)
            if not landed:
                outcomes[i] = _no_live_replica(
                    _VERBS[type(op)], oid,
                    [shard for run, _ in steps for shard in run],
                )
                continue
            for run, sub_op in cleanup:
                for shard in run:
                    admit(shard, sub_op, i, True)
            if oid in repeated:
                claims[oid] = owner
            owners.append(owner)
            acked.append(i)
        if plain is None:
            return steps_of, acked, owners, _NO_ROWS, None
        staged: Dict[int, Tuple[Sequence[int], Optional[List[WriteOp]],
                                List[int]]] = {}
        landed = np.zeros(n, dtype=bool)
        for shard, rows in runs.items():
            landed[rows] = True
            staged[shard] = (rows, None, [])
        for shard, (rows, sub_ops, cleanups) in steps_of.items():
            plain_rows = staged.get(shard)
            if plain_rows is not None:
                # Merged by row: a shard applies in submission order.
                head = plain_rows[0]
                merged = np.concatenate((head, rows))
                order = np.argsort(merged, kind="stable").tolist()
                sub_ops = list(map(ops.__getitem__, head.tolist())) + sub_ops
                rows = merged[order]
                sub_ops = list(map(sub_ops.__getitem__, order))
            staged[shard] = (rows, sub_ops, cleanups)
        # A plain row none of whose group's shards admitted it.
        for i in np.flatnonzero(plain & ~landed).tolist():
            outcomes[i] = _no_live_replica(
                _VERBS[type(ops[i])], batch.keys[i],
                list(self._group(int(primary[i]))),
            )
        return staged, acked, owners, np.flatnonzero(landed), primary

    def _plain_rows(
        self,
        batch: WriteColumns,
        admitted: np.ndarray,
        route: np.ndarray,
        repeated: Set[int],
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
        """The column pass of a batch's plan: which rows are plain, each
        row's primary (its route for a register, its owner otherwise;
        read only for a plain row), and per live shard
        (:meth:`_answerable`) the plain rows it must take, ascending —
        the rows whose primary's replica group holds the shard, less
        the deregisters of an object the shard has no copy of (one that
        never landed there).  However few the
        plain rows, the set keeps them: the pass is paid for, and the
        walk plans only the rest."""
        n, keys = len(batch), batch.keys
        kind = batch.kind
        inserting, deleting = kind == _INSERT, kind == _DELETE
        owner = np.fromiter(
            map(self._owner.get, keys, repeat(-1)), np.int64, n
        )
        known = owner >= 0
        stays = True
        if self.router.motion_sensitive:
            stays = route == owner
        plain = np.where(
            inserting, admitted & ~known,
            known & (deleting | (admitted & stays)),
        )
        if repeated:
            plain &= ~np.fromiter(map(repeated.__contains__, keys), bool, n)
        candidates = np.flatnonzero(plain)
        primary = np.where(inserting, route, owner)
        if self._members is None:
            k = self.shard_count
            self._members = np.zeros((k, k), dtype=bool)
            for p in range(k):
                self._members[list(self._group(p)), p] = True
        primaries = primary[candidates]
        deregisters = deleting[candidates].any()
        runs: Dict[int, np.ndarray] = {}
        for shard, primaries_held in enumerate(self._members):
            if not self._answerable(shard):
                continue
            rows = candidates[primaries_held[primaries]]
            if deregisters:
                gone = deleting[rows]
                copies = self._shards[shard].columns.holds(
                    list(map(keys.__getitem__, rows[gone].tolist()))
                )
                keep = np.ones(len(rows), dtype=bool)
                keep[gone] = copies
                rows = rows[keep]
            if len(rows):
                runs[shard] = rows
        return plain, primary, runs

    # -- live rebalancing -------------------------------------------------------

    def set_bands(self, edges) -> int:
        """Install a new band layout on the router (the rebalance
        controller's split/merge lever) and log it on every live
        shard; returns the new band epoch.

        The epoch-numbered ``bands`` record is what lets a restart
        re-elect owners with the same cut the pre-crash service used —
        any one surviving shard's log is enough.  Objects the new cut
        displaces stay where they are until :meth:`rehome` moves them
        (or their next report does).
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

    def rehome(self, oids: Iterable[int]) -> Dict[int, Optional[Exception]]:
        """Move each listed object the router now places off its owner
        to the group the router names: one write set.

        Holding every shard lock, as a batch does, each object's motion
        is read under the catalog lock (:meth:`_current_motion`) and the
        displaced ones are re-reported with it unchanged — one
        ``ReportOp`` each through :meth:`apply_batch`'s plan, whose
        cross-group move writes the new group before it drops the old
        copies, logs ordinary write records and announces the ops.
        Reading under the locks the set applies under means no report
        can land between the read and the move.

        Returns, per object moved, ``None`` once it landed on its new
        group or the refusal that kept it in place (no live shard of
        the new group took it).  An object no longer registered, or
        already where the router places it, is absent.
        """
        with self.metrics.span("rehome") as span:
            with self._holding(range(self.shard_count)):
                moves: List[WriteOp] = []
                with self._catalog_lock:
                    for oid in oids:
                        owner = self._owner.get(oid)
                        if owner is None:
                            continue
                        motion = self._current_motion(oid, owner)
                        if self.router.route(oid, motion) != owner:
                            moves.append(
                                ReportOp(oid, motion.y0, motion.v, motion.t0)
                            )
                if not moves:
                    return {}
                outcomes = self._apply_set(
                    WriteColumns(moves), span, per_op=False
                )
        return {op.oid: outcome for op, outcome in zip(moves, outcomes)}

    # -- queries ----------------------------------------------------------------

    def within(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """MOR query, fanned out; per-shard answers union."""
        return self._answer_set("within", (Within(y1, y2, t1, t2),))[0]

    def snapshot_at(self, y1: float, y2: float, t: float) -> Set[int]:
        """Instant query, fanned out and unioned."""
        return self._answer_set("snapshot_at", (SnapshotAt(y1, y2, t),))[0]

    def query_past(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """Historical MOR query (requires ``keep_history=True``)."""
        return self._answer_set("query_past", (_Past(y1, y2, t1, t2),))[0]

    def nearest(
        self, y: float, t: float, k: int = 1
    ) -> List[Tuple[int, float]]:
        """Global ``k``-NN: per-shard exact top-``k``, then re-rank.

        Tie-break: equal distances order by ascending object id — the
        same total order :func:`repro.extensions.neighbors.knn_at`
        uses, so results are byte-identical to a single database.  The
        merge is keyed by oid: an object resident on several shards
        (its replicas) contributes one candidate, not several.
        """
        return self._answer_set("nearest", (Nearest(y, t, k),))[0]

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
        exchange: an object resident on two shards (a replica) would
        otherwise pair with its own copy.
        """
        return self._answer_set(
            "proximity_pairs", (ProximityPairs(d, t1, t2),)
        )[0]

    def _proximity_join(
        self, op: ProximityPairs, live: List[int], span
    ) -> Tuple[Set[Tuple[int, int]], Set[int]]:
        """:meth:`proximity_pairs`' join over a cover of the ``live``
        shards (:meth:`_ask_cover`), every live one locked throughout,
        booked on ``span``: the pairs among the shards that answered,
        and who answered."""
        d, t1, t2 = op.d, op.t1, op.t2

        def admit(shards: Sequence[int]) -> List[int]:
            # The up check for each shard's whole share of the join
            # (self-join + exchanges below).
            return [shard for shard in shards if self._answerable(shard)]

        with self._holding(live):
            answered = sorted(self._ask_cover(live, admit))
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
                    span.add_shard_io(j, inner.io_delta_since(before_j))
                    pairs |= {
                        (min(a, b), max(a, b))
                        for a, b in directed
                        if a != b
                    }
        return pairs, set(answered)

    def query_batch(self, ops: Sequence[QueryOp]) -> List:
        """Answer a batch of read operations with one fan-out per shard.

        Accepts the :mod:`repro.vector.ops` vocabulary and returns one
        result per operation, in order, identical to calling the
        scalar methods one by one (the batch API changes throughput,
        not semantics).  A scalar read verb is a one-op set of the
        same plan (:meth:`_answer_set`); what a batch adds is twofold:

        * each shard is visited **once per batch** — the whole batch
          is pushed down as one
          :meth:`MotionDatabase.query_batch` kernel invocation under
          the shard lock, or one worker-pool task, where a verb calls
          the engine's paged verb;
        * answers are memoized in :class:`QueryResultCache` (keyed on
          the query, invalidated by writes), so
          repeated queries inside and across batches skip the shards
          entirely.

        ``ProximityPairs`` operations need cross-shard candidate
        exchange and run :meth:`proximity_pairs`' join; they still
        participate in the cache.

        The same plan serves a degraded service: the shards answerable
        on entry (:meth:`_answerable`) are the candidates, a cover of
        the replica groups among them is asked (:meth:`_ask_cover`),
        some of them may be down by the time they are asked
        (:meth:`_answerable`), whose groups are asked
        of their other candidates, and the lanes that answered are
        merged — each answer with a replica group no member answered
        goes through :meth:`_degrade`, as the scalar verb's does.  The
        cache only ever holds complete answers: a batch that starts
        with a shard unanswerable neither reads nor writes it, and an
        answer with an unanswered group is never stored.

        The kernels read no simulated pages, so the batch's I/O is near
        zero and **not comparable** to a verb's (see
        :meth:`service_stats`); compare the two legs by wall-clock
        (``read_qps`` / ``scalar_qps`` in ``benchmarks/perf``).
        """
        return self._answer_set("query_batch", ops)

    def _answer_set(self, name: str, ops: Sequence) -> List:
        """Answer one query set in the metrics span ``name``: a batch, or
        a scalar read verb's one op (``per_op``, the one switch, read
        here).  A one-op set is never cached and never pooled; a batch
        checks its vocabulary and computes only its distinct cache
        misses.  An answer some replica group did not contribute to
        (:meth:`_dark`) goes through :meth:`_degrade` under its verb's
        name, and is never cached."""
        per_op = name != "query_batch"
        with self.metrics.span(name) as span:
            if not per_op:
                for op in ops:
                    if type(op) not in QUERY_VERBS:
                        raise TypeError(f"unknown query operation {op!r}")
            k = self.shard_count
            live = [s for s in range(k) if self._answerable(s)]
            cache = None if per_op or len(live) < k else self.query_cache
            results: List = [None] * len(ops)
            misses: "Dict[QueryOp, List[int]]" = {}
            for i, op in enumerate(ops):
                if cache is not None:
                    hit, value = cache.get(op)
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
                generation = cache.generation() if cache is not None else 0
                computed, answered = self._compute_batch(
                    pending, live, span, per_op
                )
                for op, value, who in zip(pending, computed, answered):
                    complete = not self._dark(who)
                    if cache is not None and complete:
                        cache.put(op, value, generation=generation)
                    for n, slot in enumerate(misses[op]):
                        # duplicates get fresh copies
                        answer = copy_result(value) if n else value
                        if not complete:
                            answer = self._degrade(
                                _READ_VERBS[type(op)], answer, who
                            )
                        results[slot] = answer
            return results

    def _handle_worker_death(self, shards: List[int]) -> bool:
        """Policy hook for pool-worker failure.

        Returns ``True`` to recompute the lost shards inline (the
        plain service: answers stay complete, just slower this batch).
        The fault-tolerant subclass overrides this to mark the dead
        lanes' shards down and leave them unanswered instead.  Either
        way the pool has already respawned the worker, so the next
        batch runs at full width.
        """
        self.metrics.counter("parallel_worker_deaths").increment(len(shards))
        self.metrics.counter("parallel_inline_fallbacks").increment(
            len(shards)
        )
        return True

    def _per_shard_answers(
        self, batch: List, live: Sequence[int], span, per_op: bool
    ) -> Dict[int, List]:
        """The answers to ``batch`` of each ``live`` shard that is still
        up when its access comes (:meth:`_answerable`), keyed by shard.

        In-process, each shard is checked and answered under its lock,
        its I/O booked on ``span``: a one-op set's op (``per_op``) by
        the engine's paged verb of the same name, its fields the
        arguments; a batch by one :meth:`MotionDatabase.query_batch`,
        its kernel time booked as ``query_batch.compute``.  A batch on
        a worker pool checks every ``live`` shard first and sends each
        up one with a shared segment as one pool task (the same
        ``evaluate_arrays`` dispatch, over a seqlock snapshot); what
        the pool did not answer — no segment, or a lane lost to a
        worker death that :meth:`_handle_worker_death` recomputes — is
        answered in-process.  A down shard is absent.
        """
        pooled = not per_op and self._pool is not None
        answers: Dict[int, List] = {}
        lanes = live
        if pooled:
            lanes = [s for s in live if self._answerable(s)]
            tasks = []
            for s in lanes:
                segment = getattr(self._shards[s].columns, "segment_name",
                                  None)
                if segment is not None:
                    tasks.append((s, segment, batch))
            if tasks:
                self.metrics.counter("parallel_tasks").increment(len(tasks))
                try:
                    answers, elapsed = self._pool.query_shards(tasks)
                except WorkerCrashError as exc:
                    answers, elapsed = exc.partial, {}
                    if not self._handle_worker_death(exc.shards):
                        lanes = [s for s in lanes if s not in exc.shards]
                for s, seconds in elapsed.items():
                    self.metrics.record_shard_latency(
                        s, "query_batch.compute", seconds
                    )
        for s in lanes:
            if s in answers:
                continue
            with self._locks[s]:
                if not pooled and not self._answerable(s):
                    continue
                db = self._shards[s]
                before = db.io_snapshot()
                if per_op:
                    op, = batch
                    verb = getattr(db, _READ_VERBS[type(op)])
                    answers[s] = [verb(*vars(op).values())]
                else:
                    start = time.perf_counter()
                    answers[s] = db.query_batch(batch)
                    self.metrics.record_shard_latency(
                        s, "query_batch.compute", time.perf_counter() - start
                    )
                span.add_shard_io(s, db.io_delta_since(before))
        return answers

    def _ask_cover(
        self,
        live: List[int],
        ask: Callable[[Sequence[int]], Iterable[int]],
        shards: Optional[Sequence[int]] = None,
    ) -> Set[int]:
        """Who answered, asking ``shards`` — by default the
        :meth:`_cover` of every replica group by the ``live`` shards —
        through ``ask`` (which returns the shards that answered), then
        each group left dark by a shard gone down since the plan again
        from the live shards not yet asked, until no group is dark or
        none is left.  An up shard has applied every write of its
        groups, so one member a group gives the exact answer."""
        who: Set[int] = set()
        asked: Set[int] = set()
        if shards is None:
            shards = self._cover(range(self.shard_count), live)
        while shards:
            asked.update(shards)
            who.update(ask(shards))
            shards = self._cover(
                self._dark(who), [s for s in live if s not in asked]
            )
        return who

    def _compute_batch(
        self, ops: List, live: List[int], span, per_op: bool
    ) -> Tuple[List, List[Set[int]]]:
        """Evaluate a set's distinct uncached ops over a cover of the
        ``live`` shards (:meth:`_ask_cover`) — shard answers merged by
        union, so replica copies collapse (:func:`_merge_nearest` for a
        ``Nearest``), a ``ProximityPairs`` by :meth:`_proximity_join`
        — and who answered each."""
        results: List = [None] * len(ops)
        answered: List[Set[int]] = [set()] * len(ops)
        shardable = [
            (i, op)
            for i, op in enumerate(ops)
            if type(op) is not ProximityPairs
        ]
        if shardable:
            batch = [op for _, op in shardable]
            per_shard: Dict[int, List] = {}

            def ask(shards: Sequence[int]) -> Iterable[int]:
                answers = self._per_shard_answers(batch, shards, span, per_op)
                per_shard.update(answers)
                return answers

            # History asks every live copy: each replica closes a version
            # at its own shard clock, and the union of all hides part of
            # that (DESIGN §5.1).
            every = live if type(batch[0]) is _Past else None
            who = self._ask_cover(live, ask, every)
            for j, (slot, op) in enumerate(shardable):
                if isinstance(op, Nearest):
                    results[slot] = _merge_nearest(
                        (answers[j] for answers in per_shard.values()), op.k
                    )
                else:
                    merged: Set[int] = set()
                    for answers in per_shard.values():
                        merged |= answers[j]
                    results[slot] = merged
                answered[slot] = who
        for i, op in enumerate(ops):
            if type(op) is ProximityPairs:
                results[i], answered[i] = self._proximity_join(op, live, span)
        return results, answered

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
        close when the parallel tier was active — the shard tables'
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

        A ``metrics["shards"][i]`` row books shard ``i``'s calls and page
        I/O, and latency only under ``query_batch.compute`` (a batch's
        kernel time there).  The scalar read verbs' rows hold the
        paper's page counts; the ``query_batch`` rows reflect the column
        kernels (no simulated index I/O) and do not compare with them.
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
