"""High-level facade: a motion database for 1-D mobile objects.

:class:`MotionDatabase` is the "downstream user" API over the paper's
machinery: register objects, report motion updates as they happen, and
ask the full query menu —

* future range reporting (the MOR query, any configured method);
* instant snapshots (MOR1 semantics);
* k-nearest-neighbor at a future instant (§7);
* distance joins / proximity pairs (§7);
* historical queries over past motion (§7), when history is enabled.

The database enforces the paper's update discipline (border crossings
must be reported) and exposes the I/O accounting of everything
underneath.  History is an archive of closed versions beside the
object table (:class:`~repro.extensions.history.HistoryArchive`), not
a layer around the index: a history database loads, writes and
recovers through the same index path as any other, and a version is
closed where the engine overwrites or drops its row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.model import (
    LinearMotion1D,
    MobileObject1D,
    MotionModel,
    Terrain1D,
)
from repro.core.queries import MOR1Query, MORQuery1D
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.extensions.history import HistoryArchive
from repro.extensions.joins import index_distance_join
from repro.extensions.neighbors import knn_at
from repro.indexes.base import MobileIndex1D
from repro.indexes.dual_point import DualKDTreeIndex
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.indexes.hybrid import HybridIndex
from repro.io_sim.pager import DiskSimulator
from repro.vector.columns import MotionColumns, WriteColumns
from repro.vector.ops import (
    _DELETE,
    _INSERT,
    DeregisterOp,
    QueryOp,
    RegisterOp,
    ReportOp,
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
        Archive superseded motions beside the object table and enable
        :meth:`query_past`.
    columns_factory:
        Override the object table's implementation (default
        :class:`~repro.vector.columns.MotionColumns`); the service's
        worker-process tier passes
        :class:`~repro.vector.shm.SharedMotionColumns` here so other
        processes can read the rows.
    """

    def __init__(
        self,
        y_max: float,
        v_min: float,
        v_max: float,
        method: str = "forest",
        index_factory: Optional[Callable[[MotionModel], MobileIndex1D]] = None,
        keep_history: bool = False,
        columns_factory: Optional[Callable[[], MotionColumns]] = None,
    ) -> None:
        self.model = MotionModel(Terrain1D(y_max), v_min, v_max)
        factory = index_factory or METHOD_FACTORIES.get(method)
        if factory is None:
            raise ValueError(
                f"unknown method {method!r}; pick from "
                f"{sorted(METHOD_FACTORIES)} or pass index_factory"
            )
        #: The object table: each object once, as a row.  The index
        #: reads it (the served forest keeps no motions of its own) and
        #: the database writes a row after the index call that changed
        #: the object, so during the call the row is the old motion.
        self._columns = (columns_factory or MotionColumns)()
        self._index = HybridIndex(self.model, fast_factory=factory)
        self._index.share_motions(self._columns)
        #: The §7 archive of closed versions (``None``: no history).  An
        #: object's open version is its row, so a version is closed
        #: after the index call that ends it and before the table write
        #: that overwrites or drops the row (:meth:`_close`).
        self._archive = HistoryArchive() if keep_history else None
        self._now = 0.0
        self._update_listeners: List[Callable[[WriteColumns], None]] = []

    # -- registration and updates -------------------------------------------------

    @property
    def now(self) -> float:
        """The latest update timestamp seen."""
        return self._now

    def attach_update_listener(
        self, listener: Callable[[WriteColumns], None]
    ) -> None:
        """Call ``listener(writes)`` once per applied write set:
        ``writes`` is the :class:`~repro.vector.columns.WriteColumns` of
        the applied ops in submission order — one op for a scalar verb,
        the applied ops of an :meth:`apply_batch` (a batch that applies
        nothing announces nothing).  Listeners run inside the write path
        and must not raise.
        """
        self._update_listeners.append(listener)

    def detach_update_listener(self, listener) -> None:
        self._update_listeners.remove(listener)

    def _notify(self, writes: Sequence[WriteOp]) -> None:
        """Announce one applied write set to every listener."""
        if self._update_listeners and len(writes):
            writes = WriteColumns.of(writes)
            for listener in list(self._update_listeners):
                listener(writes)

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, oid: int) -> bool:
        return oid in self._columns

    def register(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Add a new object with its initial motion information.

        Raises :class:`InvalidMotionError` if ``oid`` is already
        registered — re-registration is not an update; use
        :meth:`report`.  The check happens before the index is touched,
        so a rejected call leaves no partial state behind.  ``t0`` may
        be behind :attr:`now`: the §7 archive orders versions per
        object.
        """
        if oid in self._columns:
            raise InvalidMotionError(
                f"object {oid} is already registered; use report() to "
                "supersede its motion"
            )
        motion = LinearMotion1D(y0, v, t0)
        self.model.check_admissible(motion, oid)
        self._index.insert(MobileObject1D(oid, motion))
        self._columns.upsert(oid, motion)
        self._now = max(self._now, motion.t0)
        self._notify((RegisterOp(oid, motion.y0, motion.v, motion.t0),))

    def report(self, oid: int, y0: float, v: float, t0: float) -> None:
        """Process a motion update from object ``oid`` (delete+insert).

        An over-speed or off-terrain report raises
        :class:`InvalidMotionError` before the index is touched: the
        update is a delete followed by an insert, and an insert
        rejected after the delete would leave the object registered
        but unindexed.
        """
        if oid not in self._columns:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        motion = LinearMotion1D(y0, v, t0)
        self.model.check_admissible(motion, oid)
        self._index.update(MobileObject1D(oid, motion))
        self._close([oid], t0)
        self._columns.upsert(oid, motion)
        self._now = max(self._now, t0)
        self._notify((ReportOp(oid, y0, v, t0),))

    def deregister(self, oid: int) -> None:
        """Remove an object (it left the system)."""
        if oid not in self._columns:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        self._index.delete(oid)
        self._close([oid], self._now)
        self._columns.delete(oid)
        self._notify((DeregisterOp(oid),))

    # -- batched writes ------------------------------------------------------------

    def apply_batch(
        self, ops: Sequence[WriteOp]
    ) -> List[Optional[Exception]]:
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
        apply order (register a, report a, deregister a is legal).  An
        object that is not a write operation raises ``TypeError``
        before anything is applied.

        The batch is columns (:class:`~repro.vector.columns.
        WriteColumns`; a batch that already is one is not converted
        again), and so is the catalog work: one admission mask
        (:meth:`~repro.core.model.MotionModel.admit_mask`) admits every
        motion, one membership pass against the object table decides
        every op on an oid the batch names once, and only the ops on a
        repeated oid are walked in order.  Accepted operations form
        *epochs* — an epoch holds at most one op per oid, so a repeated
        oid closes it, preserving per-object apply order — and each
        epoch is **one** index call,
        :meth:`~repro.indexes.base.MobileIndex1D.apply_group`: the
        deregisters' and reports' oids leave, the reports' and
        registers' :class:`~repro.vector.columns.MotionRows` arrive,
        then the object table takes the epoch in one
        :meth:`~repro.vector.columns.MotionColumns.apply_events`.
        Within an epoch all oids are distinct, so the ops commute and
        one group lands the same final state as the interleaved
        submission order — and the §3.5 forest reaches each leaf once
        an epoch, in one key-sorted run per tree, or amortizes a storm
        into one bulk rebuild.  With ``keep_history`` a report closes
        its object's version at its own ``t0`` and a deregister at the
        clock the applied ops before it set, so the archive needs no
        epoch of its own.  The update listeners, if any, get the
        applied ops' rows once per batch.  Final state and answers are
        identical to calling the scalar methods in the same order.
        """
        batch = WriteColumns.of(ops)
        keys, code = batch.keys, batch.kind
        inserting, deleting = code == _INSERT, code == _DELETE
        admitted = self.model.admit_mask(
            batch.oid, batch.y0, batch.v, batch.t0
        )
        # Whether each op finds its object registered: an oid the batch
        # names once sees the table alone; a repeated one sees the ops
        # before it that applied.
        registered = self._columns.holds(keys)
        repeated = batch.repeated()
        walked = (
            [i for i, oid in enumerate(keys) if oid in repeated]
            if repeated else []
        )
        state: Dict[int, bool] = {}
        for i in walked:
            seen = state.get(keys[i])
            registered[i] = seen = registered[i] if seen is None else seen
            if inserting[i] != seen and (deleting[i] or admitted[i]):
                state[keys[i]] = not deleting[i]
        applied = np.where(inserting, ~registered, registered) & (
            deleting | admitted
        )
        outcomes: List[Optional[Exception]] = [None] * len(keys)
        for i in np.flatnonzero(~applied).tolist():
            oid = keys[i]
            if inserting[i] and registered[i]:
                outcomes[i] = InvalidMotionError(
                    f"object {oid} is already registered; use "
                    "report() to supersede its motion"
                )
            elif not inserting[i] and not registered[i]:
                outcomes[i] = ObjectNotFoundError(
                    f"object {oid} is not registered"
                )
            else:
                outcomes[i] = self._refusal(batch[i])
        # Epochs: an applied op opens one when its oid applied in the
        # open epoch.
        starts, last = [0], {}
        for i in walked:
            if applied[i]:
                if last.get(keys[i], -1) >= starts[-1]:
                    starts.append(i)
                last[keys[i]] = i
        # With history, the clock each op sees: the database clock
        # raised by the t0 of every applied op before it.
        clock = None
        if self._archive is not None:
            clock = np.maximum.accumulate(np.concatenate((
                [self._now], np.where(applied & ~deleting, batch.t0, -np.inf)
            )))
        bounds = starts + [len(keys)]
        for lo, hi in zip(bounds, bounds[1:]):
            epoch = np.flatnonzero(applied[lo:hi]) + lo
            if len(epoch):
                self._flush_epoch(batch, keys, clock, epoch)
        if self._update_listeners:
            done = np.flatnonzero(applied).tolist()
            self._notify(
                batch if len(done) == len(keys) else batch.take(done)
            )
        return outcomes

    def _flush_epoch(
        self,
        batch: WriteColumns,
        keys: List[int],
        clock: Optional[np.ndarray],
        epoch: np.ndarray,
    ) -> None:
        """Apply one epoch — the ops at positions ``epoch`` of
        ``batch``, on distinct oids — as one index call
        (:meth:`~repro.indexes.base.MobileIndex1D.apply_group`): the
        deregisters' and reports' oids leave, the reports' and
        registers' rows arrive.  During the call every row holds its
        pre-epoch motion, which is what the index holds.  Then, with
        history, the versions the epoch ends are closed — a
        deregister's at ``clock[i]``, a report's at its own ``t0`` —
        and the table takes the epoch in one
        :meth:`~repro.vector.columns.MotionColumns.apply_events`."""
        kind = batch.kind[epoch]
        leaving = epoch[kind != _INSERT]
        gone = [keys[i] for i in epoch[kind == _DELETE].tolist()]
        rows = batch.rows(epoch[kind != _DELETE].tolist())
        oids = [keys[i] for i in leaving.tolist()]
        self._index.apply_group(oids, rows)
        if clock is not None:
            self._close(oids, np.where(
                batch.kind[leaving] == _DELETE, clock[leaving],
                batch.t0[leaving],
            ))
        self._columns.apply_events(gone, rows)
        if len(rows):
            self._now = max(self._now, float(rows.t0.max()))

    def _close(self, oids: Sequence[int], t_to) -> None:
        """With history, archive the rows of ``oids`` — still the
        versions a write ends — as valid until ``t_to``."""
        if self._archive is not None:
            self._archive.close(oids, *self._columns.gather(oids), t_to)

    def _refusal(self, op: WriteOp) -> InvalidMotionError:
        """The exception the scalar check raises for an op the
        admission mask refused."""
        try:
            self.model.raise_refusal(
                LinearMotion1D(op.y0, op.v, op.t0), op.oid
            )
        except InvalidMotionError as exc:
            return exc

    def location_of(self, oid: int, t: float) -> float:
        """Extrapolated location of one object at time ``t``."""
        return self.motion_of(oid).position(t)

    def motion_of(self, oid: int) -> LinearMotion1D:
        """The current motion of one object (no extrapolation), as the
        object table stores it: float64 fields."""
        motion = self._columns.get(oid)
        if motion is None:
            raise ObjectNotFoundError(f"object {oid} is not registered")
        return motion

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
        return self._archive is not None

    def history_snapshot(self) -> Optional[list]:
        """Archived (pre-checkpoint) motion versions, or ``None`` when
        history is disabled — the WAL includes this in checkpoints so
        recovery does not silently lose the §7 archive."""
        if self._archive is None:
            return None
        return self._archive.closed_versions()

    def restore_history(self, versions: list) -> None:
        """Re-archive versions saved by :meth:`history_snapshot`."""
        if self._archive is None:
            raise InvalidMotionError(
                "history is disabled; construct with keep_history=True"
            )
        self._archive.restore(versions)

    def objects(self) -> List[MobileObject1D]:
        """The current population as mobile objects (a fresh list, in
        oid order)."""
        return [
            MobileObject1D(oid, motion)
            for oid, motion in self._columns.items()
        ]

    def motion_snapshot(self) -> Dict[int, LinearMotion1D]:
        """The current oid → motion map (a fresh dict, in oid order)."""
        return dict(self._columns.items())

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
        return knn_at(self._index, self._columns.motion_of, y, t, k)

    def proximity_pairs(
        self, d: float, t1: float, t2: float
    ) -> Set[Tuple[int, int]]:
        """Unordered object pairs coming within ``d`` during the window."""
        directed = index_distance_join(
            self.objects(), self._index, self._columns.motion_of, d, t1, t2
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
            outer, self._index, self._columns.motion_of, d, t1, t2
        )

    # -- batch queries --------------------------------------------------------------

    @property
    def columns(self) -> MotionColumns:
        """The object table (treat as read-only)."""
        return self._columns

    def query_batch(self, queries: List[QueryOp]) -> List:
        """Answer a batch of read operations in one call.

        Accepts the :mod:`repro.vector.ops` vocabulary (``Within`` /
        ``SnapshotAt`` / ``Nearest`` / ``ProximityPairs``) and returns
        one result per operation, in order, with the same container
        conventions as the scalar methods.  The whole batch is answered
        by vectorized kernels over the object table, identically to the
        scalar methods — the batch API changes throughput, not
        semantics.
        """
        from repro.vector.evaluate import evaluate_batch

        return evaluate_batch(self._columns, queries)

    def query_past(
        self, y1: float, y2: float, t1: float, t2: float
    ) -> Set[int]:
        """Historical MOR query (requires ``keep_history=True``)."""
        if self._archive is None:
            raise InvalidMotionError(
                "history is disabled; construct with keep_history=True"
            )
        return self._archive.query(
            MORQuery1D(y1, y2, t1, t2), *self._columns.arrays()
        )

    # -- accounting -------------------------------------------------------------------
    #
    # The index interface's helpers, over the index's disks and, with
    # history, the archive's.

    @property
    def disks(self) -> Tuple[DiskSimulator, ...]:
        """Every disk this database performs I/O on."""
        disks = tuple(self._index.disks)
        if self._archive is None:
            return disks
        return disks + (self._archive.disk,)

    io_snapshot = snapshot = MobileIndex1D.snapshot
    io_cost_since = MobileIndex1D.io_cost_since
    io_delta_since = MobileIndex1D.io_delta_since
    attach_io_listener = MobileIndex1D.attach_io_listener
    pages_in_use = MobileIndex1D.pages_in_use
    clear_buffers = MobileIndex1D.clear_buffers
