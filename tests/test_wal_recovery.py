"""Crash-at-every-point recovery property test (satellite of ISSUE 3).

A :class:`ShardWAL` is a redo log of *committed* operations: the shard
applies an update, then appends the record.  The property under test:
no matter where the crash lands — after any prefix of the log, across
checkpoint boundaries — :meth:`ShardWAL.recover` rebuilds a database
whose answers (and serialized population bytes) are identical to a
never-crashed :class:`MotionDatabase` that executed the same committed
prefix.
"""

import json
import random

import pytest

from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError
from repro.service import ShardWAL
from repro.workloads.serialization import population_to_json

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

    ``checkpoint_every=8`` with ~40 events forces several checkpoint
    truncations, so prefixes land on every interesting boundary:
    empty log, mid-tail, exactly-at-checkpoint, just-after-checkpoint.
    """
    trace = seeded_trace(seed, events=40)
    live_db = factory()
    oracle = factory()
    wal = ShardWAL(checkpoint_every=8)
    # Crash point 0: nothing committed yet.
    assert_equivalent(wal.recover(factory), oracle)
    for event in trace:
        # Committed-operation protocol: apply, then log, then maybe
        # checkpoint — same ordering the service uses under the lock.
        live_db.apply_event(event)
        oracle.apply_event(event)
        wal.append(**event)
        wal.maybe_checkpoint(live_db)
        assert_equivalent(wal.recover(factory), oracle)
    assert wal.snapshot()["checkpoints"] >= 3
    assert wal.snapshot()["recoveries"] == len(trace) + 1


def test_recover_restores_clock_past_departed_objects():
    """The clock survives even when its latest reporter deregistered."""
    db = factory()
    wal = ShardWAL(checkpoint_every=4)
    db.apply_event({"kind": "insert", "oid": 1, "y0": 10.0, "v": 1.0,
                    "t0": 0.0})
    wal.append(kind="insert", oid=1, y0=10.0, v=1.0, t0=0.0)
    db.apply_event({"kind": "insert", "oid": 2, "y0": 500.0, "v": -1.0,
                    "t0": 99.0})
    wal.append(kind="insert", oid=2, y0=500.0, v=-1.0, t0=99.0)
    db.apply_event({"kind": "delete", "oid": 2})
    wal.append(kind="delete", oid=2)
    wal.checkpoint(db)  # checkpoint holds now=99.0 but only object 1
    recovered = wal.recover(factory)
    assert recovered.now == 99.0
    assert 1 in recovered and 2 not in recovered


def test_recover_replays_tail_in_sequence_order():
    """A post-checkpoint tail replays on top of the checkpoint state."""
    db = factory()
    wal = ShardWAL(checkpoint_every=100)  # manual checkpoints only
    db.apply_event({"kind": "insert", "oid": 7, "y0": 100.0, "v": 0.5,
                    "t0": 0.0})
    wal.append(kind="insert", oid=7, y0=100.0, v=0.5, t0=0.0)
    wal.checkpoint(db)
    assert wal.tail() == []
    db.apply_event({"kind": "update", "oid": 7, "y0": 250.0, "v": -0.5,
                    "t0": 4.0})
    wal.append(kind="update", oid=7, y0=250.0, v=-0.5, t0=4.0)
    recovered = wal.recover(factory)
    assert population_to_json(recovered.objects()) == population_to_json(
        db.objects()
    )
    assert recovered.now == 4.0


def test_apply_event_rejects_unknown_kind():
    with pytest.raises(InvalidMotionError):
        factory().apply_event({"kind": "compact"})


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
    wal = ShardWAL(checkpoint_every=10**6)
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
    wal = ShardWAL(checkpoint_every=100)
    wal.checkpoint(db)
    population = json.loads(wal._checkpoint["population"])
    population["objects"][1]["v"] = 99.0
    population["objects"][3]["y0"] = -5.0
    wal._checkpoint["population"] = json.dumps(population)
    with pytest.raises(InvalidMotionError, match="speed 99.0 above v_max"):
        wal.recover(factory)
