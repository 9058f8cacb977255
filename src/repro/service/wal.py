"""Per-shard write-ahead log + checkpoints (crash recovery).

MOIST's scaling story checkpoints index state so indexing survives
worker loss; :class:`ShardWAL` is that idea for one shard of the
service.  The protocol (all under the shard's lock):

1. apply the update to the shard's :class:`MotionDatabase`;
2. :meth:`append` one log record — the *redo log of committed
   operations* (append-after-apply, so a crash mid-operation leaves
   the log describing exactly the committed prefix and recovery
   reproduces the pre-crash state byte-for-byte);
3. :meth:`maybe_checkpoint` serializes the full population and
   truncates the log once the tail holds as many records as the shard
   holds objects (and at least :attr:`ShardWAL.MIN_TAIL`): a record
   and a checkpoint row cost about the same to write and to recover,
   so that is about one row written per record, and a recovery of at
   most about two loads of the shard.

A record is one trace event of :mod:`repro.workloads.serialization`
(``insert``/``update``/``delete`` plus a ``seq``), so a WAL tail
replays with the same tooling as any workload trace; a checkpoint
holds the population as four columns
(:class:`~repro.storage.codec.Population`).  How either is laid out
in bytes is :mod:`repro.storage.codec`'s decision alone; the tail
mirror holds the encoded payloads, not dicts.

One more kind is written: ``bands``, an epoch-numbered band-layout
change from ``set_bands``; recovery installs the newest layout any
shard retained before electing owners.  The latest ``bands`` record
survives checkpoint truncation: :meth:`checkpoint` carries it in the
payload.  A rebalance move is an ordinary write set, so it logs plain
``insert``/``update``/``delete`` records.

Logs written before that carry the retired two-phase migration
protocol's kinds, which are read and never written (see
``docs/api.md`` for the frame table): ``migrate_in`` replays as
register-if-absent, ``migrate_out`` and a destination-side
``migrate_abort`` as deregister-if-present, and ``migrate_begin``,
``migrate_commit`` and a source-side ``migrate_abort`` are markers with
no database effect; a ``fence`` key on a write record is ignored.

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

:meth:`recover` rebuilds a fresh database: the checkpoint rows (in
oid order, whatever order the writes came in) and the log tail as one ``apply_batch``,
which an empty index answers with a bulk build.  A ``keep_history=True``
shard first restores the archive of closed versions the checkpoint
carries and then takes the same batch through the same index, so its
recovery is the same bulk build: the archive orders versions per
object, so rows in oid order are as good as any.

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
from repro.errors import CorruptRecordError, DegradedResultWarning
from repro.storage.backend import MemoryWALBackend
from repro.storage.codec import Population, decode_record, encode_record
from repro.vector.ops import RegisterOp, WriteOp, record_op

#: One WAL record: a serialization.py trace event plus a "seq" key.
WALRecord = Dict

EventHook = Callable[[str, int], None]


def _replay_op(
    record: WALRecord, changed: Dict[int, bool], checkpoint_oids
) -> Optional[WriteOp]:
    """The write op one log record replays as; ``None`` for a marker.

    The retired migration kinds of older logs replay idempotently: a
    ``migrate_in`` whose object already arrived becomes a report, and
    a ``migrate_out`` / destination-side ``migrate_abort`` for an
    object already gone becomes nothing — recovery after a crash
    between the protocol's two commit appends must redo the cutover
    tail safely.
    An oid is present as the tail so far left it (``changed``, updated
    in place), else as the checkpoint holds it: a column searched only
    by these rare records costs less than a set of a shard's oids.
    """
    kind = record.get("kind")
    if kind in ("migrate_begin", "migrate_commit", "bands") or (
        kind == "migrate_abort" and record.get("role") != "dest"
    ):
        return None  # protocol markers; a source-side abort keeps it
    if kind in ("migrate_in", "migrate_out", "migrate_abort"):
        oid = int(record["oid"])
        present = changed.get(oid, oid in checkpoint_oids)
        if kind == "migrate_in":
            kind = "update" if present else "insert"
        elif not present:
            return None
        else:
            kind = "delete"
        record = {**record, "kind": kind}
    op = record_op(record)
    if kind != "update":
        changed[op.oid] = kind == "insert"
    return op


class ShardWAL:
    """Redo log + checkpoint for one shard, over a persistence backend.

    All methods must be called under the owning shard's lock; the
    service guarantees that, so the WAL itself carries no lock.

    Parameters
    ----------
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

    #: The shortest log tail that triggers a checkpoint; above it the
    #: tail must reach the shard's population (see the module notes).
    MIN_TAIL = 64

    def __init__(
        self,
        backend: Optional[object] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self._backend = backend if backend is not None else MemoryWALBackend()
        self._on_event = on_event
        self._appends = 0
        self._checkpoints = 0
        self._recoveries = 0
        checkpoint, tail = self._backend.load()
        self._checkpoint: Optional[Dict] = checkpoint
        #: The log tail as the codec payloads the backend wrote.
        self._records: List[bytes] = tail
        self._seq = 0
        self._bands: Optional[Dict] = None
        if checkpoint is not None:
            self._seq = int(checkpoint.get("seq", 0))
            self._bands = checkpoint.get("bands")
        try:
            for record in map(decode_record, tail):
                self._seq = max(self._seq, int(record.get("seq", 0)))
                self._track(record)
        except CorruptRecordError:
            self._backend.close()
            raise

    def _event(self, name: str, delta: int = 1) -> None:
        if self._on_event is not None:
            self._on_event(name, delta)

    # -- logging ---------------------------------------------------------------

    def append(self, kind: str, **fields: object) -> WALRecord:
        """Log one committed operation; returns the record.  A
        one-record :meth:`append_batch`."""
        return self.append_batch([(kind, fields)])[0]

    def append_batch(self, entries: List) -> List[WALRecord]:
        """Log a group of committed operations in submission order.

        ``entries`` is a list of ``(kind, fields)`` pairs.  Each entry
        gets its own sequenced record, encoded once — the log stream is
        identical to ``len(entries)`` one-record appends — but the
        group reaches the backend as one
        :meth:`~repro.storage.backend.FileWALBackend.append_many`: one
        ``write``, one fsync-policy check.  With the caller's
        following :meth:`sync` that is one fsync for the group under
        every policy (the append's own under ``always`` or a due
        ``batch:N``, the sync's otherwise).

        The backend write happens *before* the in-memory mirror is
        updated: if the backend dies mid-append (simulated crash, real
        I/O error) the group was never acknowledged and must not
        appear recovered.
        """
        seq = self._seq
        records: List[WALRecord] = []
        for kind, fields in entries:
            seq += 1
            record: WALRecord = {"seq": seq, "kind": kind}
            record.update(fields)
            records.append(record)
        payloads = [encode_record(record) for record in records]
        self._backend.append_many(payloads)
        self._seq = seq
        self._records.extend(payloads)
        for record in records:
            self._track(record)
        self._appends += len(records)
        self._event("wal_append", len(records))
        return records

    def _track(self, record: WALRecord) -> None:
        """Keep the newest-epoch ``bands`` record of the log."""
        if record.get("kind") == "bands" and (
            self._bands is None
            or int(record.get("epoch", 0)) >= int(self._bands.get("epoch", 0))
        ):
            self._bands = record

    def maybe_checkpoint(self, db: MotionDatabase) -> bool:
        """Checkpoint once the log tail holds as many records as ``db``
        holds objects, and at least :attr:`MIN_TAIL`."""
        if len(self._records) >= max(self.MIN_TAIL, len(db)):
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
            "population": Population(*db.columns.ordered()),
            "history": db.history_snapshot(),
            "bands": self._bands,
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
        """Rebuild a fresh database: checkpoint rows and log tail as one
        ``apply_batch``.

        The result answers every query byte-identically to the
        database whose committed operations this WAL recorded —
        including historical queries, when the checkpoint carries the
        archive.  A record the database refuses fails the recovery
        with the refusal of the earliest such record.
        """
        db = factory()
        ops: List[WriteOp] = []
        checkpoint_oids = ()
        if self._checkpoint is not None:
            population = self._checkpoint["population"]
            checkpoint_oids = population.oid
            if db.history_enabled:
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
            ops = [RegisterOp(*row) for row in population.rows()]
            db.restore_clock(self._checkpoint["now"])
        changed: Dict[int, bool] = {}
        for record in map(decode_record, self._records):
            op = _replay_op(record, changed, checkpoint_oids)
            if op is not None:
                ops.append(op)
        for refused in db.apply_batch(ops):
            if refused is not None:
                raise refused
        self._recoveries += 1
        self._event("wal_recovery")
        return db

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
        """Records appended since the last checkpoint (decoded)."""
        return list(map(decode_record, self._records))

    def bands_record(self) -> Optional[Dict]:
        """The newest band-layout record this log retains, if any."""
        return self._bands

    def snapshot(self) -> Dict[str, object]:
        return {
            "seq": self._seq,
            "tail_records": len(self._records),
            "checkpoint_seq": (
                self._checkpoint["seq"] if self._checkpoint else None
            ),
            "appends": self._appends,
            "checkpoints": self._checkpoints,
            "recoveries": self._recoveries,
            "backend": self._backend.stats(),
        }
