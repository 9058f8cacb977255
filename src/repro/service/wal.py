"""Per-shard write-ahead log + periodic checkpoints (crash recovery).

MOIST's scaling story checkpoints index state so indexing survives
worker loss; :class:`ShardWAL` is that idea for one shard of the
service.  The protocol (all under the shard's lock):

1. apply the update to the shard's :class:`MotionDatabase`;
2. :meth:`append` one log record — the *redo log of committed
   operations* (append-after-apply, so a crash mid-operation leaves
   the log describing exactly the committed prefix and recovery
   reproduces the pre-crash state byte-for-byte);
3. every ``checkpoint_every`` records, :meth:`maybe_checkpoint`
   serializes the full population and truncates the log.

Records and checkpoints reuse the portable formats of
:mod:`repro.workloads.serialization`: a record is one trace event
(``insert``/``update``/``delete`` plus a ``seq``), a checkpoint stores
the ``population_to_json`` payload, so a WAL dump replays with the
same tooling as any workload trace.

The live-rebalancing subsystem adds its own record kinds (all carrying
the migration's fencing ``epoch``; see ``docs/api.md`` for the frame
table):

* ``migrate_in`` — destination-side copy (replays as
  register-if-absent);
* ``migrate_begin`` — source-side copy-phase marker (no database
  effect; tracked as in-flight);
* ``migrate_commit`` — the fenced cutover record, appended to *both*
  participants' logs (no database effect; closes the in-flight entry);
* ``migrate_out`` — source-side physical removal after cutover
  (replays as deregister-if-present);
* ``migrate_abort`` — abort marker / destination copy removal
  (deregister-if-present);
* ``bands`` — an epoch-numbered band-layout change from
  ``set_bands``; recovery installs the newest layout any shard
  retained before electing owners.

The latest ``bands`` record and the open in-flight migrations survive
checkpoint truncation: :meth:`checkpoint` carries them in the payload
and :meth:`recover` restores them.

The WAL keeps its mirrors (checkpoint, redo tail, counters) in memory
as working state and writes *through* a persistence backend:

* :class:`~repro.storage.backend.MemoryWALBackend` (default) — null
  sink; state lives only in the mirrors, exactly the original
  in-memory behaviour;
* :class:`~repro.storage.backend.FileWALBackend` — every record hits
  a CRC-framed :class:`~repro.storage.log.DurableLog` on disk and
  checkpoints go through the atomic temp-fsync-rename protocol, so a
  ``ShardWAL`` opened over the same directory after real process
  death resumes from the committed prefix.

:meth:`recover` rebuilds a fresh database: load the checkpoint
population (in its serialized order — object registration order is
part of the byte-identical contract) as one ``apply_batch`` of
registrations, which an empty index answers with one bulk build
(``keep_history=True`` shards go object by object through the
recovery-path ``restore_object``: the archive's restore is
order-agnostic, its batch path is not), restore the clock and — for
``keep_history=True`` shards — the archived motion versions the
checkpoint carries, then replay the log tail through
:meth:`MotionDatabase.apply_event`.

History-enabled shards are fully recovered: checkpoints written by
this version embed the §7 archive (``history`` payload key), so the
pre-checkpoint archive survives.  Recovering a history shard from an
*older* checkpoint that lacks the payload degrades softly — a
:class:`~repro.errors.DegradedResultWarning` is emitted, a
``wal_history_loss`` event is recorded, and only the archive (never
current state) is lost.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional

from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.storage.backend import MemoryWALBackend
from repro.vector.ops import RegisterOp
from repro.workloads.serialization import (
    population_from_json,
    population_to_json,
    trace_to_json,
)

#: One WAL record: a serialization.py trace event plus a "seq" key.
WALRecord = Dict

EventHook = Callable[[str, int], None]


class ShardWAL:
    """Redo log + checkpoint for one shard, over a persistence backend.

    All methods must be called under the owning shard's lock; the
    service guarantees that, so the WAL itself carries no lock.

    Parameters
    ----------
    checkpoint_every:
        Checkpoint after this many log records.
    backend:
        Persistence seam; default is the null in-memory backend.  A
        backend whose :meth:`load` returns recovered state (an
        on-disk directory with a previous incarnation's files) seeds
        the mirrors, so ``wal.recover(factory)`` immediately rebuilds
        the pre-crash database.
    on_event:
        Optional ``(name, delta)`` counter hook (see
        :func:`repro.service.metrics.wal_event_recorder`).
    """

    def __init__(
        self,
        checkpoint_every: int = 64,
        backend: Optional[object] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = checkpoint_every
        self._backend = backend if backend is not None else MemoryWALBackend()
        self._on_event = on_event
        self._appends = 0
        self._checkpoints = 0
        self._recoveries = 0
        checkpoint, tail = self._backend.load()
        self._checkpoint: Optional[Dict] = checkpoint
        self._records: List[WALRecord] = tail
        self._seq = 0
        self._bands: Optional[Dict] = None
        self._inflight: Dict[int, WALRecord] = {}
        if checkpoint is not None:
            self._seq = int(checkpoint.get("seq", 0))
            self._bands = checkpoint.get("bands")
            for record in checkpoint.get("migrations") or []:
                self._track(record)
        if tail:
            self._seq = max(self._seq, int(tail[-1].get("seq", 0)))
        for record in tail:
            self._track(record)

    def _event(self, name: str, delta: int = 1) -> None:
        if self._on_event is not None:
            self._on_event(name, delta)

    # -- logging ---------------------------------------------------------------

    def append(self, kind: str, **fields: object) -> WALRecord:
        """Log one committed operation; returns the record.

        The backend write happens *before* the in-memory mirror is
        updated: if the backend dies mid-append (simulated crash, real
        I/O error) the record was never acknowledged and must not
        appear recovered.
        """
        seq = self._seq + 1
        record: WALRecord = {"seq": seq, "kind": kind}
        record.update(fields)
        self._backend.append(record)
        self._seq = seq
        self._records.append(record)
        self._track(record)
        self._appends += 1
        self._event("wal_append")
        return record

    def append_batch(self, entries: List) -> List[WALRecord]:
        """Log a group of committed operations in submission order.

        ``entries`` is a list of ``(kind, fields)`` pairs.  Each entry
        gets its own sequenced record — the log stream is identical to
        ``len(entries)`` scalar :meth:`append` calls, so recovery
        replays it with the unchanged :meth:`_replay`; the batching is
        purely a write-path grouping (the caller follows with a single
        :meth:`sync`, one fsync for the whole group under ``batch:N``
        policies).
        """
        records: List[WALRecord] = []
        for kind, fields in entries:
            records.append(self.append(kind, **fields))
        return records

    def _track(self, record: WALRecord) -> None:
        """Maintain the migration/band mirrors from one record.

        ``migrate_begin`` (source side) and ``migrate_in``
        (destination side) open an in-flight entry for their oid;
        ``migrate_commit`` / ``migrate_out`` / ``migrate_abort`` close
        it.  ``bands`` records keep only the newest epoch.
        """
        kind = record.get("kind")
        if kind == "bands":
            if self._bands is None or int(record.get("epoch", 0)) >= int(
                self._bands.get("epoch", 0)
            ):
                self._bands = record
        elif kind in ("migrate_begin", "migrate_in"):
            self._inflight[int(record["oid"])] = record
        elif kind in ("migrate_commit", "migrate_out", "migrate_abort"):
            self._inflight.pop(int(record["oid"]), None)

    def maybe_checkpoint(self, db: MotionDatabase) -> bool:
        """Checkpoint when the log tail reached ``checkpoint_every``."""
        if len(self._records) >= self.checkpoint_every:
            self.checkpoint(db)
            return True
        return False

    def checkpoint(self, db: MotionDatabase) -> None:
        """Serialize the full population and truncate the log tail.

        History-enabled databases contribute their archived versions
        (``history`` key) so the §7 archive survives recovery.
        """
        payload = {
            "seq": self._seq,
            "now": db.now,
            "population": population_to_json(db.objects()),
            "history": db.history_snapshot(),
            "bands": self._bands,
            "migrations": list(self._inflight.values()),
        }
        self._backend.checkpoint(payload)
        self._checkpoint = payload
        self._records = []
        self._checkpoints += 1
        self._event("wal_checkpoint")

    # -- recovery --------------------------------------------------------------

    def recover(
        self, factory: Callable[[], MotionDatabase]
    ) -> MotionDatabase:
        """Rebuild a fresh database: checkpoint load + log-tail replay.

        The result answers every query byte-identically to the
        database whose committed operations this WAL recorded —
        including historical queries, when the checkpoint carries the
        archive.
        """
        db = factory()
        if self._checkpoint is not None:
            population = population_from_json(self._checkpoint["population"])
            if db.history_enabled:
                for obj in population:
                    db.restore_object(obj.oid, obj.motion.y0, obj.motion.v,
                                      obj.motion.t0)
                history = self._checkpoint.get("history")
                if history is not None:
                    db.restore_history(history)
                else:
                    self._event("wal_history_loss")
                    warnings.warn(
                        "checkpoint predates history payloads; the "
                        "pre-checkpoint archive is lost and past "
                        "queries over it will under-report",
                        DegradedResultWarning,
                        stacklevel=2,
                    )
            else:
                # One batch into an empty database: the index bulk-builds.
                for refused in db.apply_batch([
                    RegisterOp(obj.oid, obj.motion.y0, obj.motion.v,
                               obj.motion.t0)
                    for obj in population
                ]):
                    if refused is not None:
                        raise refused
            db.restore_clock(self._checkpoint["now"])
        for record in self._records:
            self._replay(db, record)
        self._recoveries += 1
        self._event("wal_recovery")
        return db

    @staticmethod
    def _replay(db: MotionDatabase, record: WALRecord) -> None:
        """Apply one record, including the migration protocol's kinds.

        Replay is idempotent where the protocol needs it: a
        ``migrate_in`` whose object already arrived (via the
        checkpoint, or a replicated insert) degrades to a report, and
        a ``migrate_out`` / ``migrate_abort`` for an object already
        gone is a no-op — recovery after a crash between the two
        commit appends must be able to redo the cutover tail safely.
        """
        kind = record.get("kind")
        if kind in ("migrate_begin", "migrate_commit", "bands"):
            return  # protocol markers: no database effect
        if kind == "migrate_in":
            oid = int(record["oid"])
            y0 = float(record["y0"])
            v = float(record["v"])
            t0 = float(record["t0"])
            try:
                db.register(oid, y0, v, t0)
            except InvalidMotionError:
                db.report(oid, y0, v, t0)
            return
        if kind == "migrate_out" or (
            kind == "migrate_abort" and record.get("role") == "dest"
        ):
            try:
                db.deregister(int(record["oid"]))
            except ObjectNotFoundError:
                pass
            return
        if kind == "migrate_abort":
            return  # source-side marker: the source keeps the object
        db.apply_event(record)

    # -- durability pass-through -----------------------------------------------

    def sync(self) -> None:
        """Force the backend to make every appended record durable."""
        self._backend.sync()

    def close(self) -> None:
        """Release backend resources (file handles)."""
        self._backend.close()

    # -- introspection ---------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the last appended record."""
        return self._seq

    @property
    def backend(self) -> object:
        return self._backend

    def tail(self) -> List[WALRecord]:
        """Records appended since the last checkpoint (a copy)."""
        return list(self._records)

    def bands_record(self) -> Optional[Dict]:
        """The newest band-layout record this log retains, if any."""
        return self._bands

    def inflight_migrations(self) -> Dict[int, WALRecord]:
        """Open migrations (begin/in without commit/out/abort), by oid."""
        return dict(self._inflight)

    def tail_json(self) -> str:
        """The log tail in the portable trace format."""
        return trace_to_json(self._records)

    def snapshot(self) -> Dict[str, object]:
        return {
            "seq": self._seq,
            "tail_records": len(self._records),
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_seq": (
                self._checkpoint["seq"] if self._checkpoint else None
            ),
            "appends": self._appends,
            "checkpoints": self._checkpoints,
            "recoveries": self._recoveries,
            "backend": self._backend.stats(),
        }
