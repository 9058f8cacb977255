"""Crash-at-every-point recovery property test (satellite of ISSUE 3).

A :class:`ShardWAL` is a redo log of *committed* operations: the shard
applies an update, then appends the record.  The property under test:
no matter where the crash lands — after any prefix of the log, across
checkpoint boundaries — :meth:`ShardWAL.recover` rebuilds a database
whose answers (and serialized population bytes) are identical to a
never-crashed :class:`MotionDatabase` that executed the same committed
prefix.  Recovery is one ``apply_batch`` of checkpoint rows and tail;
``tests/wal_replay_oracle.py`` keeps the record-at-a-time replay it
must agree with, migration kinds and history included.  The
checkpoint trigger (the tail reaching the population) is pinned here
too.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError
from repro.service import ShardWAL
from repro.storage.codec import (
    CHECKPOINT_PREFIX,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.vector.ops import record_op
from repro.workloads.serialization import population_to_json

from tests import wal_replay_oracle
from tests.helpers import apply_record

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def factory() -> MotionDatabase:
    return MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")


def seeded_trace(seed: int, events: int):
    """A valid mixed insert/update/delete trace (tracks live oids)."""
    rng = random.Random(seed)
    live = []
    next_oid = 0
    now = 0.0
    trace = []
    for _ in range(events):
        now += rng.uniform(0.1, 1.5)
        roll = rng.random()
        if not live or roll < 0.4:
            oid, next_oid = next_oid, next_oid + 1
            live.append(oid)
            kind = "insert"
        elif roll < 0.85:
            oid = rng.choice(live)
            kind = "update"
        else:
            oid = live.pop(rng.randrange(len(live)))
            trace.append({"kind": "delete", "oid": oid})
            continue
        trace.append({
            "kind": kind,
            "oid": oid,
            "y0": rng.uniform(0.0, Y_MAX),
            "v": rng.uniform(V_MIN, V_MAX) * rng.choice((-1.0, 1.0)),
            "t0": now,
        })
    return trace


def assert_equivalent(recovered: MotionDatabase, oracle: MotionDatabase):
    """Answers and serialized state must match the never-crashed DB."""
    assert recovered.now == oracle.now
    assert len(recovered) == len(oracle)
    # Byte-identical population (oids, motions, serialization order).
    assert population_to_json(recovered.objects()) == population_to_json(
        oracle.objects()
    )
    now = oracle.now
    for y1, y2, t1, t2 in (
        (0.0, Y_MAX, 0.0, now + 5.0),
        (100.0, 400.0, now, now + 10.0),
        (650.0, 700.0, max(0.0, now - 2.0), now + 2.0),
    ):
        assert recovered.within(y1, y2, t1, t2) == oracle.within(
            y1, y2, t1, t2
        )
    assert recovered.snapshot_at(0.0, Y_MAX / 2, now) == oracle.snapshot_at(
        0.0, Y_MAX / 2, now
    )
    for k in (1, 3):
        assert recovered.nearest(Y_MAX / 3, now + 1.0, k) == oracle.nearest(
            Y_MAX / 3, now + 1.0, k
        )
    assert recovered.proximity_pairs(
        25.0, now, now + 5.0
    ) == oracle.proximity_pairs(25.0, now, now + 5.0)


@pytest.mark.parametrize("seed", [3, 11])
def test_recovery_after_every_prefix_matches_oracle(seed):
    """Kill after each committed record; recovery must equal the oracle.

    A checkpoint every 8 records over ~40 events gives several
    truncations, so prefixes land on every interesting boundary:
    empty log, mid-tail, exactly-at-checkpoint, just-after-checkpoint.
    """
    trace = seeded_trace(seed, events=40)
    live_db = factory()
    oracle = factory()
    wal = ShardWAL()
    # Crash point 0: nothing committed yet.
    assert_equivalent(wal.recover(factory), oracle)
    for i, event in enumerate(trace, start=1):
        # Committed-operation protocol: apply, then log, then maybe
        # checkpoint — same ordering the service uses under the lock.
        apply_record(live_db, event)
        apply_record(oracle, event)
        wal.append(**event)
        if i % 8 == 0:
            wal.checkpoint(live_db)
        assert_equivalent(wal.recover(factory), oracle)
    assert wal.snapshot()["checkpoints"] >= 3
    assert wal.snapshot()["recoveries"] == len(trace) + 1


def test_recover_restores_clock_past_departed_objects():
    """The clock survives even when its latest reporter deregistered."""
    db = factory()
    wal = ShardWAL()
    for event in (
        {"kind": "insert", "oid": 1, "y0": 10.0, "v": 1.0, "t0": 0.0},
        {"kind": "insert", "oid": 2, "y0": 500.0, "v": -1.0, "t0": 99.0},
        {"kind": "delete", "oid": 2},
    ):
        apply_record(db, event)
        wal.append(**event)
    wal.checkpoint(db)  # checkpoint holds now=99.0 but only object 1
    recovered = wal.recover(factory)
    assert recovered.now == 99.0
    assert 1 in recovered and 2 not in recovered


def test_recover_replays_tail_in_sequence_order():
    """A post-checkpoint tail replays on top of the checkpoint state."""
    db = factory()
    wal = ShardWAL()
    apply_record(db, {"kind": "insert", "oid": 7, "y0": 100.0, "v": 0.5,
                      "t0": 0.0})
    wal.append(kind="insert", oid=7, y0=100.0, v=0.5, t0=0.0)
    wal.checkpoint(db)
    assert wal.tail() == []
    apply_record(db, {"kind": "update", "oid": 7, "y0": 250.0, "v": -0.5,
                      "t0": 4.0})
    wal.append(kind="update", oid=7, y0=250.0, v=-0.5, t0=4.0)
    recovered = wal.recover(factory)
    assert population_to_json(recovered.objects()) == population_to_json(
        db.objects()
    )
    assert recovered.now == 4.0


def test_record_op_rejects_unknown_kind():
    with pytest.raises(InvalidMotionError):
        record_op({"kind": "compact"})
    wal = ShardWAL()
    wal.append("compact", oid=1)
    with pytest.raises(InvalidMotionError, match="'compact'"):
        wal.recover(factory)


def test_recover_loads_the_checkpoint_as_one_bulk_build():
    """A history-less checkpoint goes to the index as one batch: the
    recovered forest is bulk-packed (fewer pages, a fraction of the
    I/O of one insert per object) and answers like the live one."""
    rng = random.Random(5)
    db = factory()
    for oid in range(3000):
        db.register(
            oid, rng.uniform(0.0, Y_MAX),
            rng.uniform(V_MIN, V_MAX) * rng.choice((-1.0, 1.0)), float(oid),
        )
    wal = ShardWAL()
    wal.checkpoint(db)
    recovered = wal.recover(factory)
    assert population_to_json(recovered.objects()) == population_to_json(
        db.objects()
    )
    assert recovered.now == db.now
    assert recovered.within(100.0, 300.0, 3000.0, 3050.0) == db.within(
        100.0, 300.0, 3000.0, 3050.0
    )
    grown = sum(snap.total for snap in db.io_snapshot())
    packed = sum(snap.total for snap in recovered.io_snapshot())
    assert packed * 5 < grown
    assert recovered.pages_in_use <= db.pages_in_use


def test_recover_raises_the_first_refused_registration():
    """A checkpoint holding what the model refuses fails recovery with
    the scalar call's exception, for the earliest such object."""
    db = factory()
    for oid in range(4):
        db.register(oid, 10.0 * (oid + 1), 1.0, 0.0)
    wal = ShardWAL()
    wal.checkpoint(db)
    # Rewrite two cells of the encoded columns (oid, y0, v, t0; 4 rows).
    blob = bytearray(encode_checkpoint(wal._checkpoint))
    _, head = CHECKPOINT_PREFIX.unpack_from(blob)
    y0_at = CHECKPOINT_PREFIX.size + head + 8 * 4
    v_at = y0_at + 8 * 4
    struct.pack_into("<d", blob, v_at + 8 * 1, 99.0)
    struct.pack_into("<d", blob, y0_at + 8 * 3, -5.0)
    wal._checkpoint = decode_checkpoint(bytes(blob))
    assert wal._checkpoint["population"].v.tolist() == [1.0, 99.0, 1.0, 1.0]
    with pytest.raises(InvalidMotionError, match="speed 99.0 above v_max"):
        wal.recover(factory)


# -- one replay path ≡ the record-at-a-time oracle ---------------------------------

#: Step kinds of a generated log stream: plain writes, a fenced
#: (migration double-) write, and every migration-protocol record.
STEPS = ("write", "delete", "fenced", "migrate_in", "migrate_out",
         "abort_dest", "abort_source", "migrate_begin", "migrate_commit",
         "bands")


def stream_record(step, oid, y0, v, t0, live, epoch):
    """``(kind, fields)`` of one step against the oids in ``live``;
    ``None`` where the step has nothing valid to log (a delete of an
    absent object)."""
    motion = {"oid": oid, "y0": y0, "v": v, "t0": t0}
    if step in ("write", "fenced"):
        fields = dict(motion, fence=epoch) if step == "fenced" else motion
        return ("update" if oid in live else "insert"), fields
    if step == "delete":
        return ("delete", {"oid": oid}) if oid in live else None
    if step == "migrate_in":
        return "migrate_in", dict(motion, epoch=epoch, source=0)
    if step in ("migrate_out", "migrate_begin"):
        return step, {"oid": oid, "epoch": epoch, "dest": 1}
    if step in ("abort_dest", "abort_source"):
        return "migrate_abort", {"oid": oid, "epoch": epoch,
                                 "role": step[len("abort_"):]}
    if step == "migrate_commit":
        return step, {"oid": oid, "epoch": epoch, "role": "dest",
                      "source": 0}
    return "bands", {"edges": [0.5 + epoch / 100.0], "epoch": epoch}


@given(
    history=st.booleans(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.integers(min_value=0, max_value=7),  # oid
            st.integers(min_value=0, max_value=9),  # 0: checkpoint after
        ),
        min_size=20,
        max_size=60,
    ),
)
@settings(max_examples=60, deadline=None)
def test_recover_matches_record_at_a_time_replay(history, steps):
    """Checkpoint rows and the whole tail as one ``apply_batch`` ≡ one
    object and one record at a time, across every record kind, with
    checkpoints at random points, with and without the §7 archive."""

    def build():
        return MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest",
                              keep_history=history)

    live = build()
    wal = ShardWAL()
    for t0, (step, oid, cut) in enumerate(steps, 1):
        # Motions vary with the step, heading and speed with the oid.
        y0 = float((37 * t0 + 101 * oid) % 1000)
        v = (V_MIN + (V_MAX - V_MIN) * oid / 7) * (-1) ** t0
        logged = stream_record(step, oid, y0, v, float(t0), live, epoch=t0)
        if logged is not None:
            kind, fields = logged
            wal_replay_oracle.replay(live, dict(fields, kind=kind))
            wal.append(kind, **fields)
        if cut == 0:
            wal.checkpoint(live)
    got = wal.recover(build)
    want = wal_replay_oracle.recover(wal, build)
    assert list(got.motion_snapshot().items()) == list(
        want.motion_snapshot().items())
    assert got.motion_snapshot() == live.motion_snapshot()
    assert got.history_snapshot() == want.history_snapshot()
    assert got.now == want.now
    now = want.now
    assert got.within(100.0, 700.0, now, now + 20.0) == want.within(
        100.0, 700.0, now, now + 20.0)
    assert got.snapshot_at(0.0, Y_MAX / 2, now + 1.0) == want.snapshot_at(
        0.0, Y_MAX / 2, now + 1.0)
    assert got.nearest(Y_MAX / 3, now, 3) == want.nearest(Y_MAX / 3, now, 3)
    assert got.proximity_pairs(50.0, now, now + 5.0) == want.proximity_pairs(
        50.0, now, now + 5.0)
    if history:
        assert got.query_past(0.0, Y_MAX, 0.0, now) == want.query_past(
            0.0, Y_MAX, 0.0, now)


# -- the checkpoint trigger -----------------------------------------------------------


def test_checkpoint_fires_when_the_tail_reaches_the_population():
    """After every write either the tail is still shorter than the
    shard (and than ``MIN_TAIL``), or a checkpoint just fired — while
    the shard grows, holds, and shrinks below ``MIN_TAIL``."""
    rng = random.Random(19)

    def motion(oid, t0):
        return {"oid": oid, "y0": rng.uniform(0.0, Y_MAX),
                "v": rng.uniform(V_MIN, V_MAX), "t0": float(t0)}

    events = [dict(motion(oid, 0), kind="insert") for oid in range(150)]
    events += [dict(motion(rng.randrange(150), t), kind="update")
               for t in range(1, 401)]
    events += [{"kind": "delete", "oid": oid} for oid in range(120)]
    events += [dict(motion(rng.randrange(120, 150), t), kind="update")
               for t in range(401, 601)]
    db = factory()
    wal = ShardWAL()
    fired = []
    for event in events:
        apply_record(db, event)
        wal.append(**event)
        tail = wal.snapshot()["tail_records"]
        if wal.maybe_checkpoint(db):
            fired.append(len(db))
            assert tail >= max(ShardWAL.MIN_TAIL, len(db))
            assert wal.snapshot()["tail_records"] == 0
        else:
            assert tail < max(ShardWAL.MIN_TAIL, len(db))
    # Once at 64 registrations, at every 150 records of the full shard,
    # and at every 64 once it is down to 30 objects.
    assert fired[0] == ShardWAL.MIN_TAIL and 150 in fired and 30 in fired


@pytest.mark.parametrize("objects", [1, 40, ShardWAL.MIN_TAIL])
def test_a_small_shard_checkpoints_every_min_tail_records(objects):
    """A shard of ``MIN_TAIL`` objects or fewer keeps the fixed cadence:
    a checkpoint every ``MIN_TAIL`` records, registrations included."""
    db = factory()
    wal = ShardWAL()
    fired_at = []
    for seq in range(1, 5 * ShardWAL.MIN_TAIL + 1):
        oid = (seq - 1) % objects
        kind = "insert" if seq <= objects else "update"
        event = {"kind": kind, "oid": oid, "y0": float(seq % 900),
                 "v": 1.0, "t0": float(seq)}
        apply_record(db, event)
        wal.append(**event)
        if wal.maybe_checkpoint(db):
            fired_at.append(seq)
    step = ShardWAL.MIN_TAIL
    assert fired_at == list(range(step, 5 * step + 1, step))
