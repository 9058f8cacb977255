"""Integration tests for the batched query path and the result cache.

The contract under test everywhere: ``query_batch`` changes throughput,
never semantics.  Batched answers must equal the scalar ones —
element-for-element — through every layer (index, database, sharded
service, fault-tolerant service, executor) and across cache hits,
invalidations, evictions and degraded modes.
"""

import random
import threading

import pytest

from repro.core import MORQuery1D
from repro.errors import InvalidQueryError
from repro.indexes.base import MobileIndex1D
from repro.service import (
    BatchExecutor,
    FaultTolerantMotionService,
    Register,
    Report,
    ShardedMotionService,
)
from repro.vector.cache import QueryResultCache
from repro.vector.ops import Nearest, ProximityPairs, SnapshotAt, Within
from repro import MotionDatabase

pytestmark = pytest.mark.batch

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def populate(target, n=60, seed=7):
    rng = random.Random(seed)
    for oid in range(n):
        target.register(
            oid,
            rng.uniform(0, Y_MAX),
            rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0]),
            rng.uniform(0, 5),
        )
    return rng


def mixed_ops(rng, count=40):
    ops = []
    for q in range(count):
        t1 = rng.uniform(5, 40)
        y1 = rng.uniform(0, Y_MAX - 120)
        kind = q % 3
        if kind == 0:
            ops.append(Within(y1, y1 + rng.uniform(10, 120), t1, t1 + 10))
        elif kind == 1:
            ops.append(SnapshotAt(y1, y1 + rng.uniform(10, 120), t1))
        else:
            ops.append(Nearest(y1, t1, k=rng.randint(1, 5)))
    ops.append(ProximityPairs(3.0, 6.0, 9.0))
    return ops


def scalar_answers(target, ops):
    out = []
    for op in ops:
        if isinstance(op, Within):
            out.append(target.within(op.y1, op.y2, op.t1, op.t2))
        elif isinstance(op, SnapshotAt):
            out.append(target.snapshot_at(op.y1, op.y2, op.t))
        elif isinstance(op, Nearest):
            out.append(target.nearest(op.y, op.t, op.k))
        else:
            out.append(target.proximity_pairs(op.d, op.t1, op.t2))
    return out


# -- negative oids on a query's low edge -----------------------------------------


@pytest.mark.parametrize("v", [0.0, 0.1, -0.1, V_MIN, -V_MIN, 1.0, -1.0])
@pytest.mark.parametrize(
    "make",
    [
        lambda: MotionDatabase(Y_MAX, V_MIN, V_MAX),
        lambda: ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2),
        lambda: FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=2, replication_factor=2
        ),
    ],
    ids=["database", "sharded", "replicated"],
)
def test_negative_oids_on_the_low_edge_are_found(make, v):
    """Range scans used to bound the oid from below with ``-1`` and
    from above with ``inf``: an object with ``oid < -1`` whose key ties
    the probe's first field — exactly at ``y1`` in the slow store — was
    missed by the scalar verbs and found by ``query_batch``."""
    target = make()
    oids = {-(2**63), -5, -2, -1, 0, 5}
    for oid in sorted(oids):
        target.register(oid, 100.0, v, 0.0)
    target.register(-7, 99.0, 0.0, 0.0)  # below the edge: never an answer
    ops = [
        Within(100.0, 200.0, 0.0, 0.0),
        Within(0.0, 100.0, 0.0, 0.0),
        SnapshotAt(100.0, 100.0, 0.0),
    ]
    scalar = scalar_answers(target, ops)
    assert scalar == target.query_batch(ops)
    assert scalar[0] == scalar[2] == oids and scalar[1] == oids | {-7}


# -- MotionDatabase ------------------------------------------------------------


class TestDatabaseBatch:
    def test_vector_batch_equals_scalar_methods(self):
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        rng = populate(db)
        assert db.vector_enabled
        ops = mixed_ops(rng)
        assert db.query_batch(ops) == scalar_answers(db, ops)

    def test_vector_batch_equals_scalar_fallback_after_churn(self):
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        rng = populate(db)
        db.report(3, 500.0, 1.0, 6.0)
        db.deregister(10)
        db.deregister(59)  # last row: exercises swap-with-last
        db.report(4, 10.0, -1.0, 6.5)
        ops = mixed_ops(rng)
        assert db.query_batch(ops) == db._query_batch_scalar(ops)

    def test_vector_disabled_falls_back_to_scalar(self):
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX, vector=False)
        rng = populate(db)
        assert not db.vector_enabled
        ops = mixed_ops(rng)
        assert db.query_batch(ops) == scalar_answers(db, ops)

    def test_unknown_op_raises(self):
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        with pytest.raises(TypeError):
            db.query_batch([MORQuery1D(0.0, 1.0, 0.0, 1.0)])

    def test_index_default_query_batch_is_scalar_loop(self):
        class Probe(MobileIndex1D):
            def __init__(self):
                self.calls = []

            def insert(self, obj):
                pass

            def delete(self, oid):
                pass

            def query(self, query):
                self.calls.append(query)
                return {len(self.calls)}

            def __len__(self):
                return 0

            def disks(self):
                return []

        probe = Probe()
        q = MORQuery1D(0.0, 1.0, 0.0, 1.0)
        assert probe.query_batch([q, q]) == [{1}, {2}]
        assert probe.calls == [q, q]


# -- sharded service -----------------------------------------------------------


class TestServiceBatch:
    def make(self, **kw):
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3, **kw)
        rng = populate(service)
        return service, rng

    def test_batch_equals_scalar_loop(self):
        service, rng = self.make()
        ops = mixed_ops(rng)
        assert service.query_batch(ops) == scalar_answers(service, ops)

    def test_cache_hits_and_invalidation_counters(self):
        service, rng = self.make()
        ops = mixed_ops(rng, count=20)
        service.query_batch(ops)
        stats = service.query_cache.stats()
        assert stats["misses"] == len(ops)
        assert stats["hits"] == 0
        service.query_batch(ops)
        stats = service.query_cache.stats()
        assert stats["hits"] == len(ops)
        assert stats["misses"] == len(ops)
        # Counters surface in the shared MetricsRegistry too.
        assert service.metrics.counter("query_cache_hits").value == len(ops)
        before = service.query_cache.stats()["invalidations"]
        service.report(0, 500.0, 1.0, 6.0)
        assert service.query_cache.stats()["invalidations"] >= before

    def test_answers_stay_correct_across_writes(self):
        service, rng = self.make()
        ops = mixed_ops(rng)
        service.query_batch(ops)  # warm the cache
        service.report(5, 250.0, 1.2, 6.0)
        service.deregister(17)
        assert service.query_batch(ops) == scalar_answers(service, ops)

    def test_duplicate_ops_get_independent_results(self):
        service, rng = self.make()
        op = Within(100.0, 400.0, 5.0, 15.0)
        first, second = service.query_batch([op, op])
        assert first == second
        first.add(-1)
        assert -1 not in second

    def test_cached_results_are_isolated_from_callers(self):
        service, rng = self.make()
        op = Within(100.0, 400.0, 5.0, 15.0)
        (result,) = service.query_batch([op])
        result.add(-1)
        (again,) = service.query_batch([op])
        assert -1 not in again

    def test_cache_capacity_zero_disables_cache(self):
        service, rng = self.make(cache_capacity=0)
        assert service.query_cache is None
        ops = mixed_ops(rng)
        assert service.query_batch(ops) == scalar_answers(service, ops)

    def test_lru_eviction(self):
        service, rng = self.make(cache_capacity=2)
        a = Within(0.0, 100.0, 5.0, 10.0)
        b = Within(100.0, 200.0, 5.0, 10.0)
        c = Within(200.0, 300.0, 5.0, 10.0)
        service.query_batch([a, b, c])  # a evicted by c
        stats = service.query_cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        service.query_batch([a])
        assert service.query_cache.stats()["misses"] == 4

    def test_clock_bucket_separates_epochs(self):
        service, rng = self.make(cache_clock_bucket=1.0)
        op = SnapshotAt(0.0, Y_MAX, 10.0)
        service.query_batch([op])
        service.query_batch([op])
        assert service.query_cache.stats()["hits"] == 1
        # Advancing the service clock past the bucket edge makes the
        # cached entry invisible: fresh miss, no stale answer.
        service.report(0, 500.0, 1.0, service.now + 2.0)
        service.query_batch([op])
        assert service.query_cache.stats()["misses"] == 2

    def test_unknown_op_raises(self):
        service, _ = self.make()
        with pytest.raises(TypeError):
            service.query_batch(["within"])


# -- concurrency: batches racing the write stream ------------------------------


class TestBatchConcurrency:
    """The cache's write-race guarantee under real thread interleaving.

    A result computed outside the cache lock can be overtaken by a
    write before ``put`` runs; without the generation guard the write
    invalidates nothing (the entry is not resident yet) and the stale
    answer is served forever.  These tests hammer exactly that window
    and then check the post-quiescence batch answers — including the
    purely-cached second round — differentially against the scalar
    path.
    """

    ROUNDS = 6
    WRITERS = 3
    READERS = 2

    def churn(self, service, ops, kill=None):
        """Run writer churn against a repeated-batch reader storm.

        Returns the list of exceptions raised inside worker threads
        (must be empty).  ``kill`` is an optional zero-arg callable run
        once from its own thread mid-storm (e.g. a shard kill).
        """
        errors = []
        start = threading.Barrier(
            self.WRITERS + self.READERS + (1 if kill else 0)
        )

        def writer_loop(writer):
            # Update timestamps stay below every query instant
            # (mixed_ops uses t >= 5): the MOR model defines queries
            # at or after an object's latest update — instants before
            # it are the historical regime (query_past), where the
            # index path is not answerable and batch/scalar may
            # legitimately differ.
            rng = random.Random(500 + writer)
            try:
                start.wait()
                for round_no in range(self.ROUNDS):
                    t0 = 0.5 + round_no * 0.5 + writer / 10.0
                    for slot in range(writer, 60, self.WRITERS):
                        y0 = rng.uniform(0, Y_MAX)
                        v = rng.uniform(V_MIN, V_MAX) * rng.choice(
                            [1.0, -1.0]
                        )
                        service.report(slot, y0, v, t0)
                    extra = 1000 + writer
                    service.register(extra, rng.uniform(0, Y_MAX), V_MIN, t0)
                    service.deregister(extra)
            except Exception as exc:  # pragma: no cover - reporting
                errors.append(exc)

        def reader_loop(reader):
            try:
                start.wait()
                for _ in range(self.ROUNDS * 3):
                    results = service.query_batch(ops)
                    assert len(results) == len(ops)
            except Exception as exc:  # pragma: no cover - reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=writer_loop, args=(w,))
            for w in range(self.WRITERS)
        ] + [
            threading.Thread(target=reader_loop, args=(r,))
            for r in range(self.READERS)
        ]
        if kill is not None:

            def kill_loop():
                try:
                    start.wait()
                    kill()
                except Exception as exc:  # pragma: no cover - reporting
                    errors.append(exc)

            threads.append(threading.Thread(target=kill_loop))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return errors

    def test_batch_cache_consistent_after_write_churn(self):
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        rng = populate(service)
        ops = mixed_ops(rng, count=25)
        assert self.churn(service, ops) == []
        # Post-quiescence the batch path must agree with the scalar
        # path — twice: the first call may recompute dropped entries,
        # the second is answered largely from the cache and would
        # surface any stale value a racing put managed to store.
        expected = scalar_answers(service, ops)
        assert service.query_batch(ops) == expected
        assert service.query_batch(ops) == expected
        stats = service.query_cache.stats()
        assert stats["misses"] > 0  # the storm actually exercised it

    def test_kill_mid_storm_then_recovery_stays_consistent(self):
        service = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
        )
        rng = populate(service)
        ops = mixed_ops(rng, count=15)
        # replication_factor=2 keeps every write and query answerable
        # with one shard down, so no thread may fail.
        assert self.churn(
            service, ops, kill=lambda: service.kill_shard(1)
        ) == []
        service.recover_shard(1)
        expected = scalar_answers(service, ops)
        assert service.query_batch(ops) == expected
        assert service.query_batch(ops) == expected


class TestFaultTolerantBatch:
    def make(self):
        service = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
        )
        rng = populate(service)
        return service, rng

    def test_healthy_fast_path_equals_scalar(self):
        service, rng = self.make()
        ops = mixed_ops(rng)
        assert service.query_batch(ops) == scalar_answers(service, ops)

    def test_degraded_batch_equals_degraded_scalar(self):
        service, rng = self.make()
        ops = mixed_ops(rng)
        service.kill_shard(1)
        assert service.down_shards() == [1]
        assert service.query_batch(ops) == scalar_answers(service, ops)

    def test_degraded_answers_are_not_cached(self):
        service, rng = self.make()
        op = Within(0.0, Y_MAX, 5.0, 15.0)
        service.kill_shard(1)
        service.query_batch([op])
        service.query_batch([op])
        stats = service.query_cache.stats()
        assert stats["hits"] == 0 and stats["entries"] == 0

    def test_recovery_restores_fast_path(self):
        service, rng = self.make()
        ops = mixed_ops(rng, count=10)
        service.kill_shard(2)
        service.recover_shard(2)
        assert service.query_batch(ops) == scalar_answers(service, ops)
        assert service.query_cache.stats()["entries"] > 0


# -- executor ------------------------------------------------------------------


class TestExecutorBatch:
    def build(self, **kw):
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        executor = BatchExecutor(service, **kw)
        return service, executor

    def batch_for(self, rng):
        batch = [
            Register(oid, rng.uniform(0, Y_MAX), rng.uniform(V_MIN, V_MAX), 0.0)
            for oid in range(40)
        ]
        batch += mixed_ops(rng, count=15)
        batch.append(Report(3, 100.0, 1.0, 2.0))
        return batch

    def test_batched_epoch_matches_per_query_epoch(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        s1, e1 = self.build(batch_queries=False)
        s2, e2 = self.build(batch_queries=True)
        with e1, e2:
            r1 = e1.run(self.batch_for(rng1))
            r2 = e2.run(self.batch_for(rng2))
        assert [r.value for r in r1] == [r.value for r in r2]
        assert all(r.ok for r in r2)

    def test_batched_epoch_contains_bad_query(self):
        service, executor = self.build(batch_queries=True)
        rng = populate(service)
        with executor:
            results = executor.run(
                [Within(0.0, Y_MAX, 5.0, 10.0), Nearest(0.0, 5.0, k=0)]
            )
        good, bad = results
        assert good.ok and good.value == service.within(0.0, Y_MAX, 5.0, 10.0)
        assert not bad.ok
        assert isinstance(bad.error, InvalidQueryError)


# -- cache unit behavior -------------------------------------------------------


class TestQueryResultCache:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)
        with pytest.raises(ValueError):
            QueryResultCache(clock_bucket=0.0)

    def test_nearest_invalidation_is_distance_aware(self):
        cache = QueryResultCache()
        op = Nearest(0.0, 10.0, k=1)
        cache.put(op, [(1, 5.0)], now=0.0)
        # A far-away newcomer cannot enter a full top-1: entry survives.
        from repro.core import LinearMotion1D

        cache.on_update("insert", 2, LinearMotion1D(500.0, 0.0, 0.0))
        assert cache.get(op, now=0.0)[0]
        # A closer newcomer must invalidate.
        cache.on_update("insert", 3, LinearMotion1D(2.0, 0.0, 0.0))
        hit, _ = cache.get(op, now=0.0)
        assert not hit
        assert cache.stats()["invalidations"] == 1

    def test_unrelated_write_preserves_within_entry(self):
        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        cache.put(op, {1}, now=0.0)
        from repro.core import LinearMotion1D

        cache.on_update("insert", 9, LinearMotion1D(900.0, 0.0, 0.0))
        assert cache.get(op, now=0.0)[0]
        cache.on_update("delete", 1, None)
        assert not cache.get(op, now=0.0)[0]

    def test_stale_put_dropped_when_racing_write_affects_it(self):
        # The TOCTOU window: the write lands after the value was
        # computed but before put — invalidation finds nothing (the
        # entry is not resident yet), so put itself must refuse.
        from repro.core import LinearMotion1D

        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        gen = cache.generation()
        cache.on_update("insert", 7, LinearMotion1D(5.0, 0.0, 0.0))
        cache.put(op, {1}, now=0.0, generation=gen)
        assert not cache.get(op, now=0.0)[0]
        assert cache.stats()["stale_puts"] == 1

    def test_stale_put_kept_when_racing_write_is_irrelevant(self):
        from repro.core import LinearMotion1D

        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        gen = cache.generation()
        cache.on_update("insert", 7, LinearMotion1D(900.0, 0.0, 0.0))
        cache.put(op, {1}, now=0.0, generation=gen)
        assert cache.get(op, now=0.0)[0]
        assert cache.stats()["stale_puts"] == 0

    def test_bump_generation_floors_inflight_puts(self):
        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        gen = cache.generation()
        cache.bump_generation()  # e.g. a shard died mid-batch
        cache.put(op, {1}, now=0.0, generation=gen)
        assert not cache.get(op, now=0.0)[0]
        assert cache.stats()["stale_puts"] == 1
        # A snapshot taken after the event is accepted again.
        gen = cache.generation()
        cache.put(op, {1}, now=0.0, generation=gen)
        assert cache.get(op, now=0.0)[0]

    def test_clear_floors_inflight_puts(self):
        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        gen = cache.generation()
        cache.clear()
        cache.put(op, {1}, now=0.0, generation=gen)
        assert not cache.get(op, now=0.0)[0]

    def test_write_log_overrun_rejects_conservatively(self):
        from repro.core import LinearMotion1D
        from repro.vector.cache import WRITE_LOG_WINDOW

        cache = QueryResultCache()
        op = Within(0.0, 10.0, 0.0, 1.0)
        gen = cache.generation()
        for i in range(WRITE_LOG_WINDOW + 1):  # all provably irrelevant
            cache.on_update(
                "insert", 100 + i, LinearMotion1D(900.0, 0.0, 0.0)
            )
        cache.put(op, {1}, now=0.0, generation=gen)
        assert not cache.get(op, now=0.0)[0]
        assert cache.stats()["stale_puts"] == 1
