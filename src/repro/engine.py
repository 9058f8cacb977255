"""High-level facade: a motion database for 1-D mobile objects.

:class:`MotionDatabase` is the "downstream user" API over the paper's
machinery: register objects, report motion updates as they happen, and
ask the full query menu —

* future range reporting (the MOR query, any configured method);
* instant snapshots (MOR1 semantics);
* k-nearest-neighbor at a future instant (§7);
* distance joins / proximity pairs (§7);
* historical queries over past motion (§7), when history is enabled.

The database enforces the paper's update discipline (time moves
forward; border crossings must be reported) and exposes the I/O
accounting of everything underneath.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.model import (
    LinearMotion1D,
    MobileObject1D,
    MotionModel,
    Terrain1D,
)
from repro.core.queries import MOR1Query, MORQuery1D
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.extensions.history import HistoricalIndex
from repro.extensions.joins import index_distance_join
from repro.extensions.neighbors import knn_at
from repro.indexes.base import MobileIndex1D
from repro.indexes.dual_point import DualKDTreeIndex
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.indexes.hybrid import HybridIndex
from repro.io_sim.stats import IOSnapshot
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

#: Named method factories accepted by :class:`MotionDatabase`.
METHOD_FACTORIES: Dict[str, Callable[[MotionModel], MobileIndex1D]] = {
    "forest": lambda m: HoughYForestIndex(m, c=4),
    "kdtree": lambda m: DualKDTreeIndex(m),
}


class MotionDatabase:
    """A ready-to-use motion database over one 1-D terrain.

    Parameters
    ----------
    y_max, v_min, v_max:
        The motion model: terrain extent and the moving-object speed
        band.  Objects slower than ``v_min`` are accepted too — they go
        to the hybrid's slow store (paper §3's population split).
    method:
        Fast-band index method: ``"forest"`` (§3.5.2, default) or
        ``"kdtree"`` (§3.5.1), or pass ``index_factory`` directly.
    keep_history:
        Archive superseded motions and enable :meth:`query_past`.
    vector:
        Maintain a columnar mirror of the population and answer
        :meth:`query_batch` with the vectorized kernels of
        :mod:`repro.vector` (default).  With ``vector=False`` batches
        fall back to the scalar per-query path with identical results.
    columns_factory:
        Override the mirror implementation (default
        :class:`~repro.vector.columns.MotionColumns`); the service's
        worker-process tier passes
        :class:`~repro.vector.shm.SharedMotionColumns` here so other
        processes can read the rows.  Ignored when ``vector`` is off.
    """

    def __init__(
        self,
        y_max: float,
        v_min: float,
        v_max: float,
        method: str = "forest",
        index_factory: Optional[Callable[[MotionModel], MobileIndex1D]] = None,
        keep_history: bool = False,
        vector: bool = True,
        columns_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.model = MotionModel(Terrain1D(y_max), v_min, v_max)
        factory = index_factory or METHOD_FACTORIES.get(method)
        if factory is None:
            raise ValueError(
                f"unknown method {method!r}; pick from "
                f"{sorted(METHOD_FACTORIES)} or pass index_factory"
            )
        base: MobileIndex1D = HybridIndex(self.model, fast_factory=factory)
        if keep_history:
            base = HistoricalIndex(self.model, base)
        self._index = base
        self._history_enabled = keep_history
        self._motions: Dict[int, LinearMotion1D] = {}
        self._now = 0.0
        self._update_listeners: List[
            Callable[[str, int, Optional[LinearMotion1D]], None]
        ] = []
        self._columns = None
        self._columns_listener = None
        if vector:
            from repro.vector.columns import MotionColumns

            # columns_factory swaps in a different mirror implementation
            # (e.g. SharedMotionColumns for the worker-process tier)
            # with the same contract.
            self._columns = (columns_factory or MotionColumns)()
            self._columns_listener = self._columns.as_listener()
            self.attach_update_listener(self._columns_listener)

    # -- registration and updates -------------------------------------------------

    @property
    def now(self) -> float:
        """The latest update timestamp seen."""
        return self._now

    def attach_update_listener(
        self, listener: Callable[[str, int, Optional[LinearMotion1D]], None]
    ) -> None:
        """Call ``listener(kind, oid, motion)`` after every applied
        write; ``kind`` uses the trace dialect (``"insert"`` /
        ``"update"`` / ``"delete"``, motion ``None`` for deletes).
        Listeners run inside the write path and must not raise.
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
        """One listener pass for a whole batch of applied writes.

        Every listener sees the events in per-object apply order (in
        fact in global apply order); the columnar mirror is the one
        batch-aware listener and absorbs the whole batch through its
        vectorized :meth:`~repro.vector.columns.MotionColumns.apply_events`
        instead of n scalar calls.
        """
        if not events:
            return
        for listener in list(self._update_listeners):
            if listener is self._columns_listener:
                self._columns.apply_events(events)
            else:
                for kind, oid, motion in events:
                    listener(kind, oid, motion)

    def __len__(self) -> int:
        return len(self._motions)

    def __contains__(self, oid: int) -> bool:
        return oid in self._motions

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object with its initial motion information.

        Raises :class:`InvalidMotionError` if ``oid`` is already
        registered — re-registration is not an update; use
        :meth:`report`.  The check happens before the index is touched,
        so a rejected call leaves no partial state behind (previously a
        ``DuplicateObjectError`` escaped from inside the index, after
        the history clock had already advanced).
        """
        if oid in self._motions:
            raise InvalidMotionError(
                f"object {oid} is already registered; use report() to "
                "supersede its motion"
            )
        motion = LinearMotion1D(y0, v, t0)
        self.model.check_admissible(motion, oid)
        self._index.insert(MobileObject1D(oid, motion))
        self._motions[oid] = motion
        self._now = max(self._now, t0)
        self._notify_update("insert", oid, motion)

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Process a motion update from object ``oid`` (delete+insert).

        An over-speed or off-terrain report raises
        :class:`InvalidMotionError` before the index is touched: the
        update is a delete followed by an insert, and an insert
        rejected after the delete would leave the object registered
        but unindexed.
        """
        if oid not in self._motions:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        motion = LinearMotion1D(y0, v, t0)
        self.model.check_admissible(motion, oid)
        self._index.update(MobileObject1D(oid, motion))
        self._motions[oid] = motion
        self._now = max(self._now, t0)
        self._notify_update("update", oid, motion)

    def deregister(self, oid: int) -> None:
        """Remove an object (it left the system)."""
        if oid not in self._motions:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        if self._history_enabled:
            self._index.delete(oid, now=self._now)  # type: ignore[call-arg]
        else:
            self._index.delete(oid)
        del self._motions[oid]
        self._notify_update("delete", oid, None)

    # -- batched writes ------------------------------------------------------------

    def report_batch(
        self, reports: List[ReportOp]
    ) -> List[Optional[Exception]]:
        """Apply a batch of motion reports (see :meth:`apply_batch`)."""
        return self.apply_batch(reports)

    def apply_batch(self, ops: List[WriteOp]) -> List[Optional[Exception]]:
        """Apply a batch of write operations in one grouped pass.

        Accepts the :mod:`repro.vector.ops` write vocabulary
        (``RegisterOp`` / ``ReportOp`` / ``DeregisterOp``) and applies
        the operations **in order**, with per-operation error
        containment: the returned list is parallel to ``ops`` and holds
        ``None`` for an applied operation or the exception instance
        (``InvalidMotionError`` / ``ObjectNotFoundError``, same types
        and messages as the scalar methods) for a rejected one.  A
        rejected operation leaves no partial state — operations are
        validated against the evolving catalog before the index is
        touched, so duplicate oids *within* one batch see each other in
        apply order (register a, report a, deregister a is legal).

        Throughput comes from grouping: accepted operations accumulate
        into per-kind groups (one *epoch* holds at most one op per
        oid — a repeated oid closes the epoch, preserving per-object
        apply order), and each epoch flushes through the index batch
        hooks (:meth:`~repro.indexes.base.MobileIndex1D.insert_batch`
        / ``update_batch`` / ``delete_batch``).  Within an epoch all
        oids are distinct, so the ops commute and the fixed flush
        order (deletes, updates, inserts) lands the same final state
        as the interleaved submission order — while keeping each
        kind's group maximal, which is what lets the §3.5 forest
        amortize a storm into one bulk rebuild.  The update listeners
        fire once per batch (:meth:`_notify_update_batch`) with the
        columnar mirror absorbing the whole batch in three vectorized
        passes.  Final state and answers are identical to calling the
        scalar methods in the same order.
        """
        outcomes: List[Optional[Exception]] = [None] * len(ops)
        events: List[Tuple[str, int, Optional[LinearMotion1D]]] = []
        epoch_inserts: List[MobileObject1D] = []
        epoch_updates: List[MobileObject1D] = []
        # (oid, clock) pairs: history-enabled deletes must archive at
        # the clock the scalar call would have seen, not flush time.
        epoch_deletes: List[Tuple[int, float]] = []
        epoch_oids: Set[int] = set()

        def flush() -> None:
            if epoch_deletes:
                if self._history_enabled:
                    for oid, at in epoch_deletes:
                        self._index.delete(oid, now=at)  # type: ignore[call-arg]
                else:
                    self._index.delete_batch(
                        [oid for oid, _ in epoch_deletes]
                    )
            if epoch_updates:
                self._index.update_batch(epoch_updates)
            if epoch_inserts:
                self._index.insert_batch(epoch_inserts)
            epoch_inserts.clear()
            epoch_updates.clear()
            epoch_deletes.clear()
            epoch_oids.clear()

        for i, op in enumerate(ops):
            try:
                if isinstance(op, RegisterOp):
                    kind = "insert"
                    if op.oid in self._motions:
                        raise InvalidMotionError(
                            f"object {op.oid} is already registered; use "
                            "report() to supersede its motion"
                        )
                    motion = LinearMotion1D(op.y0, op.v, op.t0)
                    self.model.check_admissible(motion, op.oid)
                elif isinstance(op, ReportOp):
                    kind = "update"
                    if op.oid not in self._motions:
                        raise ObjectNotFoundError(
                            f"object {op.oid} is not registered"
                        )
                    motion = LinearMotion1D(op.y0, op.v, op.t0)
                    self.model.check_admissible(motion, op.oid)
                elif isinstance(op, DeregisterOp):
                    kind = "delete"
                    if op.oid not in self._motions:
                        raise ObjectNotFoundError(
                            f"object {op.oid} is not registered"
                        )
                    motion = None
                else:
                    raise TypeError(f"unknown write operation {op!r}")
            except (InvalidMotionError, ObjectNotFoundError) as exc:
                outcomes[i] = exc
                continue

            if op.oid in epoch_oids:
                flush()
            if kind == "delete":
                epoch_deletes.append((op.oid, self._now))
                del self._motions[op.oid]
            elif kind == "update":
                epoch_updates.append(MobileObject1D(op.oid, motion))
                self._motions[op.oid] = motion
                self._now = max(self._now, op.t0)
            else:
                epoch_inserts.append(MobileObject1D(op.oid, motion))
                self._motions[op.oid] = motion
                self._now = max(self._now, op.t0)
            epoch_oids.add(op.oid)
            events.append((kind, op.oid, motion))
        flush()
        self._notify_update_batch(events)
        return outcomes

    def location_of(self, oid: int, t: float) -> float:
        """Extrapolated location of one object at time ``t``."""
        motion = self._motions.get(oid)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        return motion.position(t)

    def motion_of(self, oid: int) -> LinearMotion1D:
        """The current motion of one object (no extrapolation)."""
        motion = self._motions.get(oid)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        return motion

    def history_of(self, oid: int) -> list:
        """Archived versions of one object, in ``closed_versions``
        tuple form; empty without history or archived versions.  The
        per-object slice a shard migration ships so the §7 archive
        travels with the object."""
        if not self._history_enabled:
            return []
        return [
            version
            for version in self._index.closed_versions()  # type: ignore[attr-defined]
            if version[2] == oid
        ]

    def apply_event(self, event: Dict) -> None:
        """Apply one log/trace event (the WAL-replay hook).

        Accepts the trace-event dialect of
        :mod:`repro.workloads.serialization` — ``insert``/``update``
        carry ``oid, y0, v, t0``; ``delete`` carries ``oid`` — so a
        shard write-ahead log and a portable workload trace replay
        through the same entry point.  Extra keys (``seq`` etc.) are
        ignored.
        """
        kind = event.get("kind")
        if kind == "insert":
            self.register(
                int(event["oid"]), float(event["y0"]),
                float(event["v"]), float(event["t0"]),
            )
        elif kind == "update":
            self.report(
                int(event["oid"]), float(event["y0"]),
                float(event["v"]), float(event["t0"]),
            )
        elif kind == "delete":
            self.deregister(int(event["oid"]))
        else:
            raise InvalidMotionError(f"unknown log event kind {kind!r}")

    def restore_clock(self, now: float) -> None:
        """Advance the update clock to at least ``now``.

        Recovery uses this after a checkpoint load: the checkpoint's
        clock can be ahead of every surviving motion's ``t0`` (the
        latest-reporting object may have been deregistered), and time
        must never move backwards across a crash.
        """
        self._now = max(self._now, float(now))

    @property
    def history_enabled(self) -> bool:
        """Whether this database archives superseded motion (§7)."""
        return self._history_enabled

    def restore_object(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Recovery-path :meth:`register`.

        Identical to ``register`` except that a history-enabled index
        opens the version through its order-agnostic restore path:
        checkpoint populations are serialized in registration order
        (part of the byte-identical contract), which is not timestamp
        order once objects have been updated, and the archive's
        append-only time check must not reject a legal checkpoint.
        """
        if not self._history_enabled:
            self.register(oid, y0, v, t0)
            return
        if oid in self._motions:
            raise InvalidMotionError(
                f"object {oid} is already registered; use report() to "
                "supersede its motion"
            )
        motion = LinearMotion1D(y0, v, t0)
        self.model.check_admissible(motion, oid)
        self._index.restore_insert(  # type: ignore[attr-defined]
            MobileObject1D(oid, motion)
        )
        self._motions[oid] = motion
        self._now = max(self._now, t0)
        self._notify_update("insert", oid, motion)

    def history_snapshot(self) -> Optional[list]:
        """Archived (pre-checkpoint) motion versions, or ``None`` when
        history is disabled — the WAL includes this in checkpoints so
        recovery does not silently lose the §7 archive."""
        if not self._history_enabled:
            return None
        return self._index.closed_versions()  # type: ignore[attr-defined]

    def restore_history(self, versions: list) -> None:
        """Re-archive versions saved by :meth:`history_snapshot`."""
        if not self._history_enabled:
            raise InvalidMotionError(
                "history is disabled; construct with keep_history=True"
            )
        self._index.restore_archive(versions)  # type: ignore[attr-defined]

    def objects(self) -> List[MobileObject1D]:
        """The current population as mobile objects (a fresh list)."""
        return [
            MobileObject1D(oid, motion)
            for oid, motion in self._motions.items()
        ]

    def motion_snapshot(self) -> Dict[int, LinearMotion1D]:
        """The current oid → motion map (a fresh dict)."""
        return dict(self._motions)

    # -- queries --------------------------------------------------------------------

    def within(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """MOR query: objects inside ``[y1, y2]`` sometime in ``[t1, t2]``."""
        return self._index.query(MORQuery1D(y1, y2, t1, t2))

    def snapshot_at(self, y1: float, y2: float, t: float) -> Set[int]:
        """Instant query: objects inside the range exactly at ``t``."""
        return self._index.query(MOR1Query(y1, y2, t).as_mor())

    def nearest(self, y: float, t: float, k: int = 1) -> List[Tuple[int, float]]:
        """The ``k`` objects nearest to ``y`` at time ``t``."""
        return knn_at(self._index, self._motions.__getitem__, y, t, k)

    def proximity_pairs(
        self, d: float, t1: float, t2: float
    ) -> Set[Tuple[int, int]]:
        """Unordered object pairs coming within ``d`` during the window."""
        objects = [
            MobileObject1D(oid, motion)
            for oid, motion in self._motions.items()
        ]
        directed = index_distance_join(
            objects, self._index, self._motions.__getitem__, d, t1, t2
        )
        return {(min(a, b), max(a, b)) for a, b in directed}

    def join_against(
        self,
        outer: List[MobileObject1D],
        d: float,
        t1: float,
        t2: float,
    ) -> Set[Tuple[int, int]]:
        """Directed distance join of *external* objects against this DB.

        For each outer object ``a``, report ``(a.oid, b.oid)`` for every
        resident object ``b`` coming within ``d`` of ``a`` during the
        window.  This is the candidate-exchange primitive the sharded
        service uses to find proximity pairs that straddle two shards:
        shard ``i`` ships its population as the outer relation and each
        other shard answers with one indexed MOR probe per outer object.
        """
        return index_distance_join(
            outer, self._index, self._motions.__getitem__, d, t1, t2
        )

    # -- batch queries --------------------------------------------------------------

    @property
    def vector_enabled(self) -> bool:
        """Whether the columnar fast path is active."""
        return self._columns is not None

    @property
    def columns(self):
        """The live columnar mirror (``None`` when vector is off)."""
        return self._columns

    def query_batch(self, queries: List[QueryOp]) -> List:
        """Answer a batch of read operations in one call.

        Accepts the :mod:`repro.vector.ops` vocabulary (``Within`` /
        ``SnapshotAt`` / ``Nearest`` / ``ProximityPairs``) and returns
        one result per operation, in order, with the same container
        conventions as the scalar methods.  With the columnar mirror
        active the whole batch is answered by vectorized kernels over
        one consistent view of the population; otherwise each
        operation takes the scalar path.  Either way the answers are
        identical — the batch API changes throughput, not semantics.
        """
        if self._columns is not None:
            from repro.vector.evaluate import evaluate_batch

            return evaluate_batch(self._columns, queries)
        return self._query_batch_scalar(queries)

    def _query_batch_scalar(self, queries: List[QueryOp]) -> List:
        """Scalar fallback: per-index batch for ranges, loops elsewhere."""
        results: List = [None] * len(queries)
        mor_slots: List[int] = []
        mor_queries: List[MORQuery1D] = []
        for i, op in enumerate(queries):
            if isinstance(op, Within):
                mor_slots.append(i)
                mor_queries.append(MORQuery1D(op.y1, op.y2, op.t1, op.t2))
            elif isinstance(op, SnapshotAt):
                mor_slots.append(i)
                mor_queries.append(MOR1Query(op.y1, op.y2, op.t).as_mor())
            elif isinstance(op, Nearest):
                results[i] = self.nearest(op.y, op.t, op.k)
            elif isinstance(op, ProximityPairs):
                results[i] = self.proximity_pairs(op.d, op.t1, op.t2)
            else:
                raise TypeError(f"unknown query operation {op!r}")
        if mor_queries:
            for slot, answer in zip(
                mor_slots, self._index.query_batch(mor_queries)
            ):
                results[slot] = answer
        return results

    def query_past(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """Historical MOR query (requires ``keep_history=True``)."""
        if not self._history_enabled:
            raise InvalidMotionError(
                "history is disabled; construct with keep_history=True"
            )
        return self._index.query_past(  # type: ignore[attr-defined]
            MORQuery1D(y1, y2, t1, t2)
        )

    # -- accounting -------------------------------------------------------------------

    @property
    def pages_in_use(self) -> int:
        return self._index.pages_in_use

    def io_snapshot(self) -> List[IOSnapshot]:
        return self._index.snapshot()

    def io_cost_since(self, snapshot: List[IOSnapshot]) -> int:
        return self._index.io_cost_since(snapshot)

    def io_delta_since(self, snapshot: List[IOSnapshot]) -> IOSnapshot:
        """Read/write/hit breakdown since ``snapshot`` was captured."""
        return self._index.io_delta_since(snapshot)

    def attach_io_listener(self, listener) -> None:
        """Mirror this database's page touches into ``listener``."""
        self._index.attach_io_listener(listener)

    def clear_buffers(self) -> None:
        self._index.clear_buffers()
