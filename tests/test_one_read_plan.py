"""One read plan: a scalar read verb is a one-op query set.

``within`` / ``snapshot_at`` / ``nearest`` / ``query_past`` /
``proximity_pairs`` run the plan ``query_batch`` runs — candidates
from ``_answerable``, one ``_guard`` per shard, one shard lock at a
time, the same merge, ``_degrade`` — with one switch: a verb's set is
never cached and never pooled, each shard answers through the engine's
paged verb, and its page I/O lands on the verb's own span.  These
tests pin that switch on a cached, pooled service, and the fault
behaviour of a verb on the fault-tolerant service: an injected crash
lands on the access it always did, under the verb's name, and a
degraded verb returns the ``PartialResult`` of the shards that
answered.
"""

import random

import pytest

from repro.engine import MotionDatabase
from repro.errors import DegradedResultWarning
from repro.service import (
    FaultInjector,
    FaultTolerantMotionService,
    PartialResult,
    ShardedMotionService,
)
from repro.vector.ops import Nearest, ProximityPairs, SnapshotAt, Within

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


def survivors_database(service, lost):
    """A single database given the writes of every object no ``lost``
    shard owns: what a degraded answer is restricted to."""
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX, keep_history=True)
    populate(db, keep=lambda oid: service.shard_of(oid) not in lost)
    return db


@pytest.mark.chaos
@pytest.mark.parametrize("verb", PAGED_VERBS + ("proximity_pairs",))
def test_an_injected_crash_on_a_verb_lands_on_its_access(verb):
    """Shard 1 crashes on its first read: the verb's own access, named
    for the verb.  At ``replication = 1`` its group is dark, so the verb
    returns the ``PartialResult`` of the other shards' objects."""

    def build(injector):
        service = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=1,
            keep_history=True, fault_injector=injector,
        )
        populate(service)
        return service

    probe = build(FaultInjector({}))
    written = probe._injector.snapshot()["ops_per_shard"]
    service = build(FaultInjector({1: written[1] + 1}))
    args = CALLS[verb][0] if verb in CALLS else (4.0, 5.0, 9.0)
    with pytest.warns(DegradedResultWarning, match=verb):
        got = getattr(service, verb)(*args)
    assert service.down_shards() == [1]
    assert service.shard_status()[1]["reason"] == (
        f"injected crash during {verb}"
    )
    # One access a shard, the crashing one included.
    faults = service._injector.snapshot()
    assert faults["crashed_shards"] == [1]
    assert faults["ops_per_shard"] == {
        shard: count + 1 for shard, count in written.items()
    }
    oracle = survivors_database(service, {1})
    assert got == PartialResult(
        value=getattr(oracle, verb)(*args), unavailable_shards=(1,)
    )
