"""One read plan: a scalar read verb is a one-op query set.

``within`` / ``snapshot_at`` / ``nearest`` / ``query_past`` /
``proximity_pairs`` run the plan ``query_batch`` runs — candidates
from ``_answerable``, which each shard's access asks again, one shard
lock at a time, the same merge, ``_degrade`` — with one switch: a
verb's set is never cached and never pooled, each shard answers
through the engine's paged verb, and its page I/O lands on the verb's
own span.  These tests pin that switch on a cached, pooled service;
which shards a read asks — one member of each replica group, every
live shard for history; and the fault behaviour of a verb on the
fault-tolerant service: a shard killed between the verb's plan and
its access is skipped there, and a degraded verb returns the
``PartialResult`` of the shards that answered.
"""

import random

import pytest

from repro.engine import MotionDatabase
from repro.errors import DegradedResultWarning
from repro.service import (
    FaultTolerantMotionService,
    PartialResult,
    ShardedMotionService,
)
from repro.vector.ops import Nearest, ProximityPairs, SnapshotAt, Within

from .helpers import kill_on_access

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

#: verb → its arguments and the ``query_batch`` op asking the same.
CALLS = {
    "within": ((200.0, 420.0, 6.0, 12.0), Within(200.0, 420.0, 6.0, 12.0)),
    "snapshot_at": ((100.0, 500.0, 8.0), SnapshotAt(100.0, 500.0, 8.0)),
    "nearest": ((500.0, 7.0, 4), Nearest(500.0, 7.0, 4)),
    "query_past": ((0.0, Y_MAX, 0.0, 3.0), None),
}
PAGED_VERBS = tuple(CALLS)


def writes(n=90, seed=5):
    """Registers at t0 in [0, 2], then a report at t0 = 4 for every
    third object, so ``query_past`` over [0, 3] reads history."""
    rng = random.Random(seed)

    def motion():
        return (rng.uniform(0, Y_MAX),
                rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0]))

    stream = [("register", oid, *motion(), rng.uniform(0, 2))
              for oid in range(n)]
    stream += [("report", oid, *motion(), 4.0) for oid in range(0, n, 3)]
    return stream


def populate(target, keep=lambda oid: True):
    for verb, oid, *motion in writes():
        if keep(oid):
            getattr(target, verb)(oid, *motion)


@pytest.fixture
def pooled():
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, keep_history=True, workers=1
    )
    try:
        populate(service)
        yield service
    finally:
        service.close()


@pytest.mark.parallel
@pytest.mark.parametrize("verb", PAGED_VERBS)
def test_a_verb_skips_cache_and_pool_and_pages_each_shard_once(
    pooled, monkeypatch, verb
):
    """On a cached, pooled service a scalar verb leaves the cache and
    the pool untouched, calls the engine's paged verb once per shard,
    and books each call's I/O on its own span, shard by shard — no
    ``query_batch`` row and no ``query_batch.compute`` sample."""
    args, op = CALLS[verb]
    if op is not None:
        pooled.query_batch([op])  # warm: the cache and pool are live
    pooled.clear_buffers()
    cache_before = pooled.query_cache.stats()
    metrics_before = pooled.metrics.snapshot()
    calls = []
    paged = getattr(MotionDatabase, verb)

    def spy(db, *call_args):
        before = db.io_snapshot()
        value = paged(db, *call_args)
        calls.append((pooled._shards.index(db), call_args,
                      db.io_delta_since(before)))
        return value

    monkeypatch.setattr(MotionDatabase, verb, spy)
    monkeypatch.setattr(
        MotionDatabase, "query_batch",
        lambda db, batch: pytest.fail("a scalar verb ran a batch kernel"),
    )
    answer = getattr(pooled, verb)(*args)
    monkeypatch.undo()

    assert pooled.query_cache.stats() == cache_before
    after = pooled.metrics.snapshot()
    assert after["counters"].get("parallel_tasks") == (
        metrics_before["counters"].get("parallel_tasks")
    )
    assert after["operations"].get("query_batch") == (
        metrics_before["operations"].get("query_batch")
    )
    assert [(shard, call_args) for shard, call_args, _ in calls] == [
        (shard, args) for shard in range(pooled.shard_count)
    ]
    assert any(io.reads for _, _, io in calls)
    for shard, _, io in calls:
        row = after["shards"][shard][verb]
        assert row["calls"] == 1
        assert (row["reads"], row["writes"], row["buffer_hits"]) == (
            io.reads, io.writes, io.buffer_hits
        )
        # A shard's share books no latency sample of its own.
        assert pooled.metrics.shard_operation(
            shard, verb
        ).latency_ms.count == 0
        assert after["shards"][shard].get("query_batch.compute") == (
            metrics_before["shards"][shard].get("query_batch.compute")
        )
    booked = after["operations"][verb]
    assert booked["calls"] == 1
    assert booked["reads"] == sum(io.reads for _, _, io in calls)
    if op is not None:
        assert pooled.query_batch([op]) == [answer]


@pytest.mark.parallel
def test_a_proximity_verb_skips_cache_and_pool(pooled):
    op = ProximityPairs(4.0, 5.0, 9.0)
    pooled.query_batch([op])
    cache_before = pooled.query_cache.stats()
    tasks = pooled.metrics.snapshot()["counters"].get("parallel_tasks")
    answer = pooled.proximity_pairs(op.d, op.t1, op.t2)
    assert pooled.query_cache.stats() == cache_before
    assert pooled.metrics.snapshot()["counters"].get("parallel_tasks") == tasks
    assert pooled.query_batch([op]) == [answer]


#: service → how to build it over 4 shards, and the shards a read asks
#: while all are up.  Ring groups ``{p, p + 1}`` at ``r = 2`` each hold
#: shard 0 or 2; at ``r = 1``, as on the plain service, a group is one
#: shard.
BUILDS = {
    "ft-r2": (lambda: FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
        keep_history=True,
    ), [0, 2]),
    "ft-r1": (lambda: FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
        keep_history=True,
    ), [0, 1, 2, 3]),
    "plain": (lambda: ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, keep_history=True,
    ), [0, 1, 2, 3]),
}


def spied(service, monkeypatch, name, call):
    """``call()``, and the shards whose ``MotionDatabase.<name>`` ran
    during it, in order."""
    shards = []
    engine = getattr(MotionDatabase, name)

    def spy(db, *args):
        shards.append(service._shards.index(db))
        return engine(db, *args)

    with monkeypatch.context() as patch:
        patch.setattr(MotionDatabase, name, spy)
        value = call()
    return value, shards


@pytest.mark.parametrize("build", BUILDS)
def test_a_read_asks_one_member_of_each_replica_group(
    monkeypatch, build
):
    """A scalar verb pages, a batch runs its kernel on, and a proximity
    join self-joins exactly the cover of the replica groups: shards
    {0, 2} at ``r = 2``, every shard at ``r = 1`` and on the plain
    service."""
    make, cover = BUILDS[build]
    service = make()
    populate(service)
    for verb in ("within", "snapshot_at", "nearest"):
        args, op = CALLS[verb]
        assert spied(service, monkeypatch, verb,
                     lambda: getattr(service, verb)(*args))[1] == cover
        assert spied(service, monkeypatch, "query_batch",
                     lambda: service.query_batch([op]))[1] == cover
    assert spied(service, monkeypatch, "proximity_pairs",
                 lambda: service.proximity_pairs(4.0, 5.0, 9.0))[1] == cover


@pytest.mark.parametrize("build", BUILDS)
def test_query_past_asks_every_live_shard(monkeypatch, build):
    """History keeps the union of every live copy, though one member a
    group would cover it: each replica closes a version at its own
    shard clock.  With a shard down it asks all the others."""
    make, _ = BUILDS[build]
    service = make()
    populate(service)
    args = CALLS["query_past"][0]
    assert spied(service, monkeypatch, "query_past",
                 lambda: service.query_past(*args))[1] == [0, 1, 2, 3]
    if build == "ft-r2":
        service.kill_shard(1)
        assert spied(service, monkeypatch, "query_past",
                     lambda: service.query_past(*args))[1] == [0, 2, 3]


def survivors_database(service, lost):
    """A single database given the writes of every object no ``lost``
    shard owns: what a degraded answer is restricted to."""
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX, keep_history=True)
    populate(db, keep=lambda oid: service.shard_of(oid) not in lost)
    return db


@pytest.mark.chaos
@pytest.mark.parametrize("verb", PAGED_VERBS + ("proximity_pairs",))
def test_an_injected_crash_on_a_verb_lands_on_its_access(verb):
    """Shard 1 is up when the verb plans its read and killed when its
    access comes (as a concurrent ``kill_shard`` would leave it): the
    access skips it.  At ``replication = 1`` its group is dark, so the
    verb returns the ``PartialResult`` of the other shards' objects."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=1,
        keep_history=True,
    )
    populate(service)
    asked = kill_on_access(service, 1)
    args = CALLS[verb][0] if verb in CALLS else (4.0, 5.0, 9.0)
    with pytest.warns(DegradedResultWarning, match=verb):
        got = getattr(service, verb)(*args)
    assert service.down_shards() == [1]
    assert service.shard_status()[1]["reason"] == "killed during a read"
    # Each shard asked twice: by the plan, then by its one access.
    assert asked == {0: 2, 1: 2, 2: 2}
    oracle = survivors_database(service, {1})
    assert got == PartialResult(
        value=getattr(oracle, verb)(*args), unavailable_shards=(1,)
    )
