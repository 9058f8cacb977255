"""The record-at-a-time WAL recovery, kept as an oracle.

:meth:`repro.service.wal.ShardWAL.recover` turns a shard's checkpoint
rows and log tail into one ``apply_batch``.  Before it did, recovery
registered the checkpoint object by object and replayed the tail one
record at a time through the scalar verbs, with the migration
protocol's idempotent kinds handled by catching the scalar errors.
That path survives here only as the reference the recovery property
in ``test_wal_recovery.py`` holds the batch to, as
``extsort_oracle.py`` keeps the record-at-a-time external sort.
"""

from __future__ import annotations

from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError, ObjectNotFoundError


def apply_event(db: MotionDatabase, event: dict) -> None:
    """One ``insert`` / ``update`` / ``delete`` trace event through the
    scalar verbs; any other kind raises ``InvalidMotionError``."""
    kind = event.get("kind")
    if kind == "insert":
        db.register(int(event["oid"]), float(event["y0"]),
                    float(event["v"]), float(event["t0"]))
    elif kind == "update":
        db.report(int(event["oid"]), float(event["y0"]),
                  float(event["v"]), float(event["t0"]))
    elif kind == "delete":
        db.deregister(int(event["oid"]))
    else:
        raise InvalidMotionError(f"unknown log event kind {kind!r}")


def replay(db: MotionDatabase, record: dict) -> None:
    """One log record, including the migration protocol's kinds."""
    kind = record.get("kind")
    if kind in ("migrate_begin", "migrate_commit", "bands"):
        return
    if kind == "migrate_in":
        oid = int(record["oid"])
        y0, v, t0 = (float(record[key]) for key in ("y0", "v", "t0"))
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
        return
    apply_event(db, record)


def recover(wal, factory) -> MotionDatabase:
    """What ``wal.recover(factory)`` rebuilt, one object and one record
    at a time."""
    db = factory()
    checkpoint = wal._checkpoint
    if checkpoint is not None:
        for row in checkpoint["population"].rows():
            db.register(*row)
        if db.history_enabled and checkpoint.get("history") is not None:
            db.restore_history(checkpoint["history"])
        db.restore_clock(checkpoint["now"])
    for record in wal.tail():
        replay(db, record)
    return db
