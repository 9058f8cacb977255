"""Units for the metrics registry and shard routers."""

import random
import threading

import pytest

from repro.io_sim.stats import IOSnapshot, IOStats, combine_snapshots
from repro.service import (
    BatchExecutor,
    HashRouter,
    MetricsRegistry,
    Register,
    Report,
    ShardedMotionService,
    VelocityRouter,
    mix_oid,
)
from repro.core.model import LinearMotion1D
from repro.vector.ops import RegisterOp, ReportOp

from tests.test_service_differential import (
    V_MAX,
    V_MIN,
    Y_MAX,
    drive,
    full_menu_check,
)


class TestHistogram:
    def test_percentiles_exact(self):
        registry = MetricsRegistry()
        metrics = registry.operation("op")
        for value in range(1, 101):
            metrics.latency_ms.record(float(value))
        assert metrics.latency_ms.percentile(50.0) == 50.0
        assert metrics.latency_ms.percentile(99.0) == 99.0
        assert metrics.latency_ms.percentile(100.0) == 100.0

    def test_empty_histogram_is_zero(self):
        registry = MetricsRegistry()
        histogram = registry.operation("op").latency_ms
        assert histogram.percentile(50.0) == 0.0
        assert histogram.mean == 0.0

    def test_bad_percentile_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.operation("op").latency_ms.percentile(101.0)


class TestRegistry:
    def test_span_records_latency_io_and_errors(self):
        registry = MetricsRegistry()
        with registry.span("query") as span:
            span.add_shard_io(0, IOSnapshot(reads=3, writes=1))
            span.add_shard_io(2, IOSnapshot(reads=2))
        with pytest.raises(RuntimeError):
            with registry.span("query"):
                raise RuntimeError("boom")
        snapshot = registry.snapshot()
        query = snapshot["operations"]["query"]
        assert query["calls"] == 2
        assert query["errors"] == 1
        assert query["reads"] == 5
        assert query["writes"] == 1
        assert query["p99_ms"] >= query["p50_ms"] >= 0.0
        assert set(snapshot["shards"]) == {0, 2}
        assert snapshot["shards"][0]["query"]["reads"] == 3

    def test_concurrent_spans_count_exactly(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(200):
                with registry.span("op") as span:
                    span.add_shard_io(0, IOSnapshot(reads=1))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        summary = registry.snapshot()["operations"]["op"]
        assert summary["calls"] == 800
        assert summary["reads"] == 800

    def test_shard_latency_spans_and_percentiles(self):
        registry = MetricsRegistry()
        for latency in (0.010, 0.020, 0.030):
            registry.record_shard_latency(0, "query_batch.compute", latency)
        registry.record_shard_latency(2, "query_batch.compute", 0.100)
        p99 = registry.shard_latency_percentile("query_batch.compute", 99.0)
        # Only shards with samples report — no zero-filled phantoms
        # to drag the rebalance detector's mean down.
        assert set(p99) == {0, 2}
        assert p99[2] >= p99[0] > 0.0
        p50 = registry.shard_latency_percentile("query_batch.compute", 50.0)
        assert p50[0] <= p99[0]
        assert registry.shard_latency_percentile("no.such.op", 99.0) == {}
        # The latency record books no I/O: a shard that only ever
        # reported compute spans shows clean read/write counts.
        snapshot = registry.snapshot()
        compute = snapshot["shards"][0]["query_batch.compute"]
        assert compute["calls"] == 3
        assert compute["reads"] == 0 and compute["writes"] == 0


class TestIOStatsListener:
    def test_listener_mirrors_every_touch(self):
        aggregate = IOStats()
        stats = IOStats(listener=aggregate)
        stats.record_read()
        stats.record_write()
        stats.record_buffer_hit()
        stats.record_read()
        assert (aggregate.reads, aggregate.writes, aggregate.buffer_hits) == (
            2, 1, 1,
        )
        stats.set_listener(None)
        stats.record_read()
        assert aggregate.reads == 2

    def test_combine_snapshots(self):
        total = combine_snapshots(
            [IOSnapshot(1, 2, 3), IOSnapshot(10, 20, 30)]
        )
        assert (total.reads, total.writes, total.buffer_hits) == (11, 22, 33)
        assert total.total == 33


class TestRouters:
    def test_hash_router_spreads_consecutive_ids(self):
        router = HashRouter(4)
        motion = LinearMotion1D(0.0, 1.0, 0.0)
        buckets = {router.route(oid, motion) for oid in range(16)}
        assert len(buckets) == 4  # not all on one shard

    def test_hash_router_deterministic(self):
        assert mix_oid(12345) == mix_oid(12345)
        router = HashRouter(7)
        motion = LinearMotion1D(0.0, 1.0, 0.0)
        assert [router.route(i, motion) for i in range(50)] == [
            router.route(i, motion) for i in range(50)
        ]

    def test_velocity_router_bands(self):
        router = VelocityRouter(4, v_max=2.0)
        assert router.route(1, LinearMotion1D(0.0, 0.1, 0.0)) == 0
        assert router.route(1, LinearMotion1D(0.0, -0.1, 0.0)) == 0
        assert router.route(1, LinearMotion1D(0.0, 1.99, 0.0)) == 3
        assert router.route(1, LinearMotion1D(0.0, 99.0, 0.0)) == 3  # clamp
        assert router.motion_sensitive

    def test_router_validation(self):
        with pytest.raises(ValueError):
            HashRouter(0)
        with pytest.raises(ValueError):
            VelocityRouter(2, v_max=0.0)


class TestBatchExecutorEpochFailures:
    def test_failed_op_does_not_leak_into_next_epoch(self):
        """Regression: a failed op in epoch 1 must not reappear in
        epoch 2's failure view.  ``last_run_failed_ops`` is rebuilt
        per epoch; only the registry's ``failed_ops`` is cumulative."""
        service = ShardedMotionService(1000.0, 0.16, 1.66, shards=2)
        with BatchExecutor(service) as executor:
            epoch1 = [
                Register(0, 100.0, 1.0, 0.0),
                Register(0, 200.0, 1.0, 0.0),  # duplicate: fails
            ]
            results = executor.run(epoch1)
            assert [result.ok for result in results] == [True, False]
            assert executor.last_run_failed_ops == {"register": 1}

            epoch2 = [Report(0, 150.0, 1.0, 1.0)]
            results = executor.run(epoch2)
            assert all(result.ok for result in results)
            assert executor.last_run_failed_ops == {}

        # The cumulative caller-observed view still remembers epoch 1.
        assert service.metrics.snapshot()["failed_ops"] == {"register": 1}


def test_same_op_stream_gives_same_counts():
    """Traffic is seeded end to end: one op stream into two fresh
    services gives identical call and page counts per operation class
    (latency differs, wall clock is real)."""
    a = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
    b = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
    drive(random.Random(7), a, b, steps=60, check=full_menu_check)
    ops_a = a.metrics.snapshot()["operations"]
    ops_b = b.metrics.snapshot()["operations"]
    assert {"register", "report", "within", "nearest"} <= set(ops_a)
    assert set(ops_a) == set(ops_b)
    for name in ops_a:
        for field in ("calls", "reads", "writes"):
            assert ops_a[name][field] == ops_b[name][field], (name, field)


def test_io_counters_survive_index_rebuilds():
    """The first batch into an empty forest and an update storm past
    ``REBUILD_FRACTION`` both swap every disk under a shard's index.
    Shard totals must keep growing through them, the registry's live
    aggregate must stay their sum, and the storm — the most expensive
    write there is — must be booked at no less than the pages it
    packed."""
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
    rng = random.Random(5)

    def motion(t0):
        speed = rng.uniform(V_MIN, V_MAX) * rng.choice((-1, 1))
        return (rng.uniform(0.0, Y_MAX), speed, t0)

    def checked_totals(at_least):
        state = service.service_stats()["shard_state"]
        totals = [shard["io"] for shard in state]
        for now, before in zip(totals, at_least):
            assert all(now[field] >= before[field] for field in now)
        live = service.metrics.snapshot()["live_io"]
        assert live == {
            field: sum(shard[field] for shard in totals) for field in live
        }
        return totals

    def batch_writes():
        return service.metrics.snapshot()["operations"]["apply_batch"]["writes"]

    zero = dict.fromkeys(("reads", "writes", "buffer_hits"), 0)
    errors = service.apply_batch(
        [RegisterOp(oid, *motion(0.0)) for oid in range(1600)]
    )
    assert not any(errors)
    loaded = checked_totals([zero, zero])
    assert all(shard["writes"] > 0 for shard in loaded)
    for oid in range(100):
        service.report(oid, *motion(1.0))
    reported = checked_totals(loaded)
    writes_before = batch_writes()
    errors = service.apply_batch(
        [ReportOp(oid, *motion(2.0)) for oid in range(1600)]
    )
    assert not any(errors)
    checked_totals(reported)
    packed = sum(
        shard["pages_in_use"]
        for shard in service.service_stats()["shard_state"]
    )
    assert batch_writes() - writes_before >= packed
