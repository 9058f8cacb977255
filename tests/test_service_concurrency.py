"""Concurrency stress: interleaved batch updates + queries, ≥4 threads.

The invariants under fire:

* **no lost updates** — each writer thread owns a disjoint oid slice
  and reports motions with increasing timestamps; afterwards every
  object's motion must be exactly the last one its writer reported;
* **no duplicate oids across shards** — shard populations partition
  the catalog at all times (checked at the end, and duplicate
  registration must fail no matter which thread wins the race);
* **monotone per-shard ``now``** — a monitor thread samples every
  shard's clock throughout the run; each shard's sequence of samples
  must be non-decreasing.
"""

import random
import threading
import time

import pytest

from repro.errors import InvalidMotionError
from repro.service import (
    Nearest,
    RegisterOp,
    ReportOp,
    ShardedMotionService,
    SnapshotAt,
    Within,
)

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
WRITERS = 4
OIDS_PER_WRITER = 25
ROUNDS = 8


def _motion(rng):
    speed = rng.uniform(V_MIN, V_MAX)
    direction = 1 if rng.random() < 0.5 else -1
    return rng.uniform(0.0, Y_MAX), direction * speed


@pytest.mark.parametrize("router", ["hash", "velocity"])
def test_interleaved_batches_keep_invariants(router):
    """Writers alternate ``apply_batch`` rounds with rounds of scalar
    ``report`` calls, so the scalar path's plan → lock → re-validate
    sequence (a cross-shard move under the velocity router) runs
    beside batches that hold every shard lock.  Readers alternate
    ``query_batch`` with the scalar verbs."""
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, router=router
    )
    errors = []
    last_reported = [dict() for _ in range(WRITERS)]
    clock_samples = [[] for _ in range(service.shard_count)]
    stop_monitor = threading.Event()

    # Seed the population up front so queries always have objects.
    seed_rng = random.Random(100)
    seed_batch = []
    for writer in range(WRITERS):
        for slot in range(OIDS_PER_WRITER):
            oid = writer * OIDS_PER_WRITER + slot
            y0, v = _motion(seed_rng)
            seed_batch.append(RegisterOp(oid, y0, v, 0.0))
            last_reported[writer][oid] = (y0, v, 0.0)
    assert not any(service.apply_batch(seed_batch))

    def monitor():
        while not stop_monitor.is_set():
            for shard, now in enumerate(service.shard_now()):
                clock_samples[shard].append(now)
            time.sleep(0.001)

    def writer_loop(writer):
        rng = random.Random(1000 + writer)
        try:
            for round_no in range(ROUNDS):
                batch = []
                t_base = float(round_no + 1)
                for slot in range(OIDS_PER_WRITER):
                    oid = writer * OIDS_PER_WRITER + slot
                    y0, v = _motion(rng)
                    t0 = t_base + slot / (10.0 * OIDS_PER_WRITER)
                    batch.append(ReportOp(oid, y0, v, t0))
                    last_reported[writer][oid] = (y0, v, t0)
                if round_no % 2:
                    for op in batch:
                        service.report(op.oid, op.y0, op.v, op.t0)
                else:
                    for error in service.apply_batch(batch):
                        if error is not None:
                            raise error
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader_loop(reader):
        rng = random.Random(2000 + reader)
        try:
            for _ in range(ROUNDS * 2):
                y1, t = rng.uniform(0, 800), rng.uniform(1.0, 20.0)
                y = rng.uniform(0, Y_MAX)
                answers = service.query_batch([
                    Within(y1, 900.0, 1.0, 30.0),
                    SnapshotAt(0.0, Y_MAX, t),
                    Nearest(y, 10.0, k=3),
                ])
                answers += [
                    service.within(y1, 900.0, 1.0, 30.0),
                    service.snapshot_at(0.0, Y_MAX, t),
                    service.nearest(y, 10.0, k=3),
                ]
                assert all(answer is not None for answer in answers)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=monitor)]
    threads += [
        threading.Thread(target=writer_loop, args=(w,))
        for w in range(WRITERS)
    ]
    threads += [
        threading.Thread(target=reader_loop, args=(r,)) for r in range(2)
    ]
    for thread in threads[1:]:
        thread.start()
    threads[0].start()
    for thread in threads[1:]:
        thread.join()
    stop_monitor.set()
    threads[0].join()

    assert not errors, errors

    # No lost updates: final motion == last reported, per writer slice.
    for writer in range(WRITERS):
        for oid, (y0, v, t0) in last_reported[writer].items():
            assert service.location_of(oid, t0 + 7.0) == pytest.approx(
                y0 + v * 7.0
            ), f"oid {oid} lost its last update"

    # No duplicate oids across shards; populations partition the catalog.
    populations = service.shard_populations()
    total = sum(len(p) for p in populations)
    union = set().union(*populations)
    assert total == len(union) == len(service) == WRITERS * OIDS_PER_WRITER

    # Monotone per-shard clocks.
    for shard, samples in enumerate(clock_samples):
        assert samples == sorted(samples), f"shard {shard} clock regressed"
        assert samples[-1] <= service.shard_now()[shard] + 1e-9

    # Metrics observed the traffic.
    stats = service.service_stats()
    ops = stats["metrics"]["operations"]
    half = ROUNDS // 2
    assert ops["report"]["calls"] == WRITERS * OIDS_PER_WRITER * half
    assert ops["apply_batch"]["calls"] == 1 + WRITERS * half
    assert ops["within"]["calls"] == 2 * ROUNDS * 2
    assert ops["query_batch"]["calls"] == 2 * ROUNDS * 2
    assert ops["report"]["p99_ms"] >= ops["report"]["p50_ms"] >= 0.0


def test_racing_duplicate_registration_single_winner():
    """Many threads register the same oid: exactly one wins, the rest
    get InvalidMotionError, and the object exists on exactly one shard."""
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4)
    outcomes = []
    barrier = threading.Barrier(8)

    def racer(i):
        barrier.wait()
        try:
            service.register(42, 100.0 + i, 1.0, 0.0)
            outcomes.append("won")
        except InvalidMotionError:
            outcomes.append("lost")

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("won") == 1
    assert outcomes.count("lost") == 7
    populations = service.shard_populations()
    assert sum(len(p) for p in populations) == 1


def test_concurrent_mixed_direct_calls():
    """Direct (non-batched) service calls from many threads stay safe:
    every thread hammers updates and queries on the same service."""
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4)
    for oid in range(40):
        service.register(oid, 10.0 + oid * 20.0, 1.0, 0.0)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(60):
                choice = rng.random()
                if choice < 0.4:
                    oid = rng.randrange(40)
                    y0, v = _motion(rng)
                    service.report(oid, y0, v, float(i))
                elif choice < 0.7:
                    service.within(
                        rng.uniform(0, 500), 700.0, float(i), float(i) + 10.0
                    )
                else:
                    service.nearest(rng.uniform(0, Y_MAX), float(i), k=2)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(3000 + t,)) for t in range(6)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert len(service) == 40
    populations = service.shard_populations()
    assert sum(len(p) for p in populations) == 40
