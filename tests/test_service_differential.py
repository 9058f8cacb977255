"""Differential harness: sharded service ≡ single MotionDatabase.

Seeded randomized workloads (registers, motion reports, deregisters)
are replayed simultaneously into one ``MotionDatabase`` (the oracle)
and a ``ShardedMotionService`` at several shard counts; at every
checkpoint the full query menu must return *identical* results:

* ``within`` / ``snapshot_at`` — identical id sets;
* ``nearest`` — identical ranked ``(oid, distance)`` lists.  The
  tie-break is part of the contract: equal distances order by
  ascending object id, in both the single-database path
  (:func:`repro.extensions.neighbors.knn_at`) and the cross-shard
  merge re-rank;
* ``proximity_pairs`` — identical unordered pair sets, which is what
  exercises the cross-shard candidate exchange (pairs whose members
  live on different shards).
"""

import random

import pytest

from repro.engine import MotionDatabase
from repro.service import (
    Nearest,
    ProximityPairs,
    RegisterOp,
    ReportOp,
    ShardedMotionService,
    SnapshotAt,
    VelocityRouter,
    Within,
)

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def random_motion(rng):
    speed = rng.uniform(V_MIN, V_MAX)
    direction = 1 if rng.random() < 0.5 else -1
    return rng.uniform(0.0, Y_MAX), direction * speed


def drive(rng, single, sharded, steps, check):
    """Replay one random trace into both engines, checking as we go."""
    live = set()
    next_oid = 0
    now = 0.0
    for step in range(steps):
        now += rng.uniform(0.0, 0.5)
        action = rng.random()
        if action < 0.5 or len(live) < 10:
            y0, v = random_motion(rng)
            single.register(next_oid, y0, v, now)
            sharded.register(next_oid, y0, v, now)
            live.add(next_oid)
            next_oid += 1
        elif action < 0.85:
            oid = rng.choice(sorted(live))
            y0, v = random_motion(rng)
            single.report(oid, y0, v, now)
            sharded.report(oid, y0, v, now)
        else:
            oid = rng.choice(sorted(live))
            single.deregister(oid)
            sharded.deregister(oid)
            live.remove(oid)
        if step % 25 == 24:
            check(single, sharded, rng, now)
    check(single, sharded, rng, now)


def full_menu_check(single, sharded, rng, now):
    for _ in range(3):
        y1 = rng.uniform(0.0, Y_MAX * 0.8)
        t1 = now + rng.uniform(0.0, 20.0)
        t2 = t1 + rng.uniform(0.0, 30.0)
        assert sharded.within(y1, y1 + 120.0, t1, t2) == single.within(
            y1, y1 + 120.0, t1, t2
        )
        assert sharded.snapshot_at(y1, y1 + 60.0, t1) == single.snapshot_at(
            y1, y1 + 60.0, t1
        )
    for k in (1, 3, 8):
        y = rng.uniform(0.0, Y_MAX)
        t = now + rng.uniform(0.0, 25.0)
        assert sharded.nearest(y, t, k) == single.nearest(y, t, k)
    t1 = now + rng.uniform(0.0, 5.0)
    d = rng.uniform(1.0, 6.0)
    assert sharded.proximity_pairs(d, t1, t1 + 15.0) == (
        single.proximity_pairs(d, t1, t1 + 15.0)
    )


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
@pytest.mark.parametrize("seed", [11, 23, 37])
def test_hash_sharding_matches_single_database(shards, seed):
    rng = random.Random(seed)
    single = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    sharded = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
    drive(rng, single, sharded, steps=150, check=full_menu_check)
    # Every object lives on exactly one shard.
    populations = sharded.shard_populations()
    assert sum(len(p) for p in populations) == len(sharded) == len(single)
    union = set().union(*populations) if populations else set()
    assert union == {obj.oid for obj in single.objects()}


@pytest.mark.parametrize("seed", [5, 17])
def test_velocity_sharding_matches_single_database(seed):
    """Velocity routing migrates objects on speed changes; results
    must still match the oracle exactly."""
    rng = random.Random(seed)
    single = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    sharded = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, router="velocity"
    )
    drive(rng, single, sharded, steps=120, check=full_menu_check)
    populations = sharded.shard_populations()
    assert sum(len(p) for p in populations) == len(single)
    # Banding invariant: shard i only holds speeds in band i.
    router = sharded.router
    assert isinstance(router, VelocityRouter)
    for i, population in enumerate(populations):
        for oid in population:
            shard_db = sharded._shards[i]
            motion = shard_db.motion_of(oid)
            assert router.route(oid, motion) == i, (
                f"oid {oid} with |v|={abs(motion.v)} misplaced on shard {i}"
            )


@pytest.mark.parametrize("method", ["forest", "kdtree"])
def test_both_index_methods(method):
    rng = random.Random(41)
    single = MotionDatabase(Y_MAX, V_MIN, V_MAX, method=method)
    sharded = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, method=method
    )
    drive(rng, single, sharded, steps=80, check=full_menu_check)


def test_nearest_tie_break_is_documented_order():
    """Two objects at mirrored positions are equidistant: the smaller
    id wins, on the single database and on every shard count."""
    engines = [MotionDatabase(Y_MAX, V_MIN, V_MAX)] + [
        ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=k)
        for k in (2, 4, 7)
    ]
    for engine in engines:
        engine.register(7, 480.0, 1.0, 0.0)   # at t=10: 490, distance 10
        engine.register(3, 520.0, -1.0, 0.0)  # at t=10: 510, distance 10
    expected = engines[0].nearest(500.0, 10.0, k=2)
    assert [oid for oid, _ in expected] == [3, 7]  # tie -> smaller id
    for engine in engines[1:]:
        assert engine.nearest(500.0, 10.0, k=2) == expected


@pytest.mark.parametrize("shards", [2, 4])
def test_batch_executor_matches_sequential_oracle(shards):
    """The service's batch entry points equal sequential replay:
    ``apply_batch(updates)`` then ``query_batch(queries)`` answers what
    one database fed the same updates in submission order answers."""
    rng = random.Random(59)
    single = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    sharded = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
    registers = []
    for oid in range(50):
        y0, v = random_motion(rng)
        registers.append(RegisterOp(oid, y0, v, 0.0))
    assert sharded.apply_batch(registers) == [None] * len(registers)
    updates = []
    for _ in range(30):
        oid = rng.randrange(50)
        y0, v = random_motion(rng)
        updates.append(ReportOp(oid, y0, v, rng.uniform(1.0, 5.0)))
    assert sharded.apply_batch(updates) == [None] * len(updates)
    queries = [
        Within(200.0, 450.0, 6.0, 30.0),
        SnapshotAt(100.0, 300.0, 12.0),
        Nearest(500.0, 10.0, k=5),
        ProximityPairs(3.0, 6.0, 20.0),
    ]
    values = sharded.query_batch(queries)
    for op in registers:
        single.register(op.oid, op.y0, op.v, op.t0)
    for op in updates:
        single.report(op.oid, op.y0, op.v, op.t0)
    assert values == [
        single.within(200.0, 450.0, 6.0, 30.0),
        single.snapshot_at(100.0, 300.0, 12.0),
        single.nearest(500.0, 10.0, k=5),
        single.proximity_pairs(3.0, 6.0, 20.0),
    ]
