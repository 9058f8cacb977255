"""Multi-process shard execution over shared-memory columns.

The contract under test: the parallel tier changes *where* a shard's
kernels run, never what they answer.  Layer by layer —

* :class:`SharedMotionColumns` mirrors :class:`MotionColumns`
  mutation-for-mutation (same rows, same version), publishes every
  state through the seqlock so a cross-process reader either gets a
  torn-free snapshot or a typed :class:`TornSegmentError`, and never
  leaks a ``/dev/shm`` segment past ``close()``;
* the capacity-doubling growth policy (both stores) keeps append
  amortized O(1) and — the regression this PR fixes — churn at a
  fixed population never grows the arrays at all;
* :class:`WorkerPool` executes per-shard sub-batches byte-identically
  to the in-process path, across a differential wall of pool widths x
  shard counts x seeds;
* a pooled service torn down with ``close()`` leaves no segments and
  no worker processes behind.
"""

import os
import random

import pytest

from repro.core.model import LinearMotion1D, MobileObject1D
from repro.service import (
    FaultTolerantMotionService,
    ShardedMotionService,
    WorkerPool,
)
from repro.vector.columns import _MIN_CAPACITY, MotionColumns
from repro.vector.evaluate import evaluate_arrays
from repro.vector.ops import Nearest, RegisterOp, SnapshotAt, Within
from repro.vector.shm import (
    SharedMotionColumns,
    TornSegmentError,
    attach_segment,
    live_segment_names,
    read_snapshot,
    segment_size,
)

pytestmark = pytest.mark.parallel

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def random_motion(rng):
    speed = rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0])
    return LinearMotion1D(rng.uniform(0, Y_MAX), speed, rng.uniform(0, 5))


def mixed_queries(rng, count):
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
    return ops


def rows_by_oid(columns):
    oid, y0, v, t0 = columns.arrays()
    return sorted(
        zip(oid.tolist(), y0.tolist(), v.tolist(), t0.tolist())
    )


# -- shared columns mirror the in-process store -------------------------------


def test_shared_columns_match_plain_columns_under_churn():
    rng = random.Random(11)
    plain, shared = MotionColumns(), SharedMotionColumns()
    try:
        live = []
        for step in range(500):
            roll = rng.random()
            if roll < 0.6 or not live:
                oid = rng.randrange(200)
                motion = random_motion(rng)
                plain.upsert(oid, motion)
                shared.upsert(oid, motion)
                if oid not in live:
                    live.append(oid)
            elif roll < 0.8:
                oid = rng.choice(live)
                live.remove(oid)
                plain.delete(oid)
                shared.delete(oid)
            else:
                gone, written = [], []
                for oid in rng.sample(range(200), rng.randrange(1, 8)):
                    if rng.random() < 0.3 and oid in live:
                        gone.append(oid)
                        live.remove(oid)
                    else:
                        written.append(MobileObject1D(oid, random_motion(rng)))
                        if oid not in live:
                            live.append(oid)
                plain.apply_events(gone, written)
                shared.apply_events(gone, written)
            assert len(shared) == len(plain)
            assert shared.version == plain.version
        assert rows_by_oid(shared) == rows_by_oid(plain)
        for oid in live:
            assert shared.motion_of(oid) == plain.motion_of(oid)
    finally:
        shared.close()


def test_snapshot_read_equals_owner_arrays():
    rng = random.Random(23)
    shared = SharedMotionColumns()
    try:
        for oid in range(120):
            shared.upsert(oid, random_motion(rng))
        shm = attach_segment(shared.segment_name)
        try:
            oid, y0, v, t0, version = read_snapshot(shm)
            assert version == shared.version
            assert sorted(
                zip(oid.tolist(), y0.tolist(), v.tolist(), t0.tolist())
            ) == rows_by_oid(shared)
            # The snapshot is a copy: mutating the owner afterwards
            # must not reach into it.
            before = y0.copy()
            shared.upsert(0, random_motion(rng))
            assert (y0 == before).all()
        finally:
            shm.close()
    finally:
        shared.close()


def test_growth_changes_segment_and_retires_old_name():
    shared = SharedMotionColumns()
    rng = random.Random(31)
    try:
        first_name = shared.segment_name
        first_capacity = shared.capacity
        for oid in range(first_capacity + 1):  # force one growth
            shared.upsert(oid, random_motion(rng))
        assert shared.segment_name != first_name
        assert shared.segment_count == 2
        # The retired segment froze mid-write (odd seq, forever): a
        # late reader times out with the typed error instead of
        # returning the pre-growth rows as if they were current.
        stale = attach_segment(first_name)
        try:
            with pytest.raises(TornSegmentError):
                read_snapshot(stale, timeout_s=0.05)
        finally:
            stale.close()
        # The new segment answers normally.
        shm = attach_segment(shared.segment_name)
        try:
            oid, *_rest = read_snapshot(shm)
            assert len(oid) == first_capacity + 1
        finally:
            shm.close()
    finally:
        shared.close()


def test_batch_is_one_publication_window():
    """A reader never sees a half-applied batch: the version jumps by
    exactly one per apply_events, and the row count it reads is always
    a published state's count."""
    rng = random.Random(37)
    shared = SharedMotionColumns()
    try:
        shared.apply_events(
            [], [MobileObject1D(oid, random_motion(rng)) for oid in range(50)]
        )
        shm = attach_segment(shared.segment_name)
        try:
            _, _, _, _, version = read_snapshot(shm)
            assert version == 1
        finally:
            shm.close()
        shared.apply_events(
            list(range(25)),
            [
                MobileObject1D(100 + oid, random_motion(rng))
                for oid in range(10)
            ],
        )
        shm = attach_segment(shared.segment_name)
        try:
            oid, _, _, _, version = read_snapshot(shm)
            assert version == 2
            assert len(oid) == 35
        finally:
            shm.close()
    finally:
        shared.close()


# -- growth policy (the unbounded-growth regression) --------------------------


@pytest.mark.parametrize("factory", [MotionColumns, SharedMotionColumns])
def test_churn_at_fixed_population_never_grows(factory):
    """Delete+insert churn at constant population must not grow the
    arrays at all — the old policy compounded the allocation on every
    growth, so long-lived churn marched capacity upward unboundedly."""
    rng = random.Random(41)
    columns = factory()
    population = 100
    try:
        for oid in range(population):
            columns.upsert(oid, random_motion(rng))
        settled = columns.capacity
        next_oid = population
        for _ in range(2000):
            columns.delete(next_oid - population)  # oldest live oid
            columns.upsert(next_oid, random_motion(rng))
            next_oid += 1
            assert len(columns) == population
        assert columns.capacity == settled
        # Batch churn through apply_events (_reserve) holds too.
        for _ in range(50):
            columns.apply_events(
                list(range(next_oid - 20, next_oid)),
                [
                    MobileObject1D(next_oid + i, random_motion(rng))
                    for i in range(20)
                ],
            )
            next_oid += 20
        assert columns.capacity == settled
    finally:
        if hasattr(columns, "close"):
            columns.close()


@pytest.mark.parametrize("factory", [MotionColumns, SharedMotionColumns])
def test_growth_is_amortized_doubling(factory):
    """Appends trigger O(log n) growths and capacity tracks 2x the
    requirement, not the historical allocation."""
    rng = random.Random(43)
    columns = factory()
    capacities = {columns.capacity}
    try:
        for oid in range(1500):
            columns.upsert(oid, random_motion(rng))
            capacities.add(columns.capacity)
            assert columns.capacity <= max(_MIN_CAPACITY, 4 * len(columns))
        assert len(capacities) <= 12  # doubling: log2(1500/16) + slack
    finally:
        if hasattr(columns, "close"):
            columns.close()


def test_segment_size_matches_layout():
    assert segment_size(0) == 32
    assert segment_size(100) == 32 + 4 * 8 * 100


# -- worker pool --------------------------------------------------------------


@pytest.fixture(scope="module")
def pool2():
    pool = WorkerPool(2)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def pool4():
    pool = WorkerPool(4)
    yield pool
    pool.close()


def test_pool_answers_match_inline_dispatch(pool2):
    rng = random.Random(47)
    stores = [SharedMotionColumns() for _ in range(3)]
    try:
        for shard, store in enumerate(stores):
            for oid in range(shard, 240, 3):
                store.upsert(oid, random_motion(rng))
        ops = mixed_queries(rng, 18)
        tasks = [
            (shard, store.segment_name, ops)
            for shard, store in enumerate(stores)
        ]
        answers, elapsed = pool2.query_shards(tasks)
        assert sorted(answers) == [0, 1, 2]
        assert all(took >= 0.0 for took in elapsed.values())
        for shard, store in enumerate(stores):
            want = [evaluate_arrays(*store.arrays(), op) for op in ops]
            assert answers[shard] == want
    finally:
        for store in stores:
            store.close()


def test_pool_rejects_bad_width_and_closed_use():
    with pytest.raises(ValueError):
        WorkerPool(0)
    pool = WorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError):
        pool.query_shards([])


def test_worker_reports_bad_segment_instead_of_dying(pool2):
    """A worker-side failure (unattachable segment) surfaces as a
    crash error naming the shard — and the lane stays usable."""
    from repro.service.parallel import WorkerCrashError

    with pytest.raises(WorkerCrashError) as excinfo:
        pool2.query_shards([(0, "repro-cols-no-such-segment", [])])
    assert excinfo.value.shards == [0]
    store = SharedMotionColumns()
    try:
        rng = random.Random(53)
        store.upsert(1, random_motion(rng))
        ops = mixed_queries(rng, 3)
        answers, _ = pool2.query_shards([(0, store.segment_name, ops)])
        assert answers[0] == [
            evaluate_arrays(*store.arrays(), op) for op in ops
        ]
    finally:
        store.close()


# -- differential wall: pooled service vs the in-process path -----------------


def _populate(service, seed, n=150):
    rng = random.Random(seed)
    ops = []
    for oid in range(n):
        speed = rng.uniform(V_MIN, V_MAX) * rng.choice([1.0, -1.0])
        ops.append(RegisterOp(oid, rng.uniform(0, Y_MAX), speed, 0.0))
    service.apply_batch(ops)
    return rng


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_pooled_service_is_byte_identical(pool2, pool4, shards, seed):
    oracle = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=shards, cache_capacity=0
    )
    rng = _populate(oracle, seed)
    stream = mixed_queries(rng, 24)
    want = oracle.query_batch(stream)
    for pool in (pool2, pool4):
        pooled = ShardedMotionService(
            Y_MAX, V_MIN, V_MAX, shards=shards, cache_capacity=0, pool=pool
        )
        try:
            _populate(pooled, seed)
            assert pooled.query_batch(stream) == want
        finally:
            pooled.close()


def test_pooled_service_owns_and_closes_its_pool():
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=2, workers=2, cache_capacity=0
    )
    _populate(service, 7, n=40)
    pool = service.pool
    assert service.parallel_workers == 2
    assert pool.size == 2
    rng = random.Random(7)
    assert service.query_batch(mixed_queries(rng, 6))
    assert service.metrics.counter("parallel_tasks").value > 0
    service.close()
    assert service.pool is None
    with pytest.raises(RuntimeError):
        pool.query_shards([])


# -- cleanup: nothing outlives close ------------------------------------------


def test_close_unlinks_every_segment():
    shared = SharedMotionColumns()
    rng = random.Random(59)
    for oid in range(100):  # force a couple of growths
        shared.upsert(oid, random_motion(rng))
    names = set()
    assert shared.segment_count >= 2
    names.update(
        name for name in live_segment_names()
        if name.startswith("repro-cols-")
    )
    assert names
    shared.close()
    shared.close()  # idempotent
    left = set(live_segment_names())
    assert not (names & left)
    if os.path.isdir("/dev/shm"):
        on_disk = set(os.listdir("/dev/shm"))
        assert not (names & on_disk)


def test_service_close_releases_segments_and_workers():
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, workers=2
    )
    _populate(service, 13, n=80)
    rng = random.Random(13)
    service.query_batch(mixed_queries(rng, 6))
    pids = service.pool.worker_pids()
    before = set(live_segment_names())
    assert before  # every shard mirror lives in shared memory
    service.close()
    after = set(live_segment_names())
    assert not (before & after)
    deadline = 50
    for pid in pids:
        for _ in range(deadline):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            import time as _time

            _time.sleep(0.05)
        else:
            pytest.fail(f"worker {pid} survived service.close()")
