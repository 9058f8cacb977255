"""What standing queries cost a sharded service (DESIGN.md §5).

    PYTHONPATH=src python benchmarks/subscriptions.py

A 4-shard ``ShardedMotionService`` loaded with 20,000 and then 100,000
objects; on each, three trials (median):

* ``attach_ms`` — ``SubscriptionManager(service)``;
* ``attach_mb`` — what the manager holds right after attaching, before
  any subscription (``tracemalloc``, a separate attach);
* ``subscribe_ms`` — one ``subscribe_snapshot`` / ``subscribe_within``
  (8 per trial, half each);
* ``batch_ms`` — one ``apply_batch`` of 1,000 reports with those 8
  subscriptions open.

Timings are wall-clock on whatever host runs it.  To compare two
trees, run this file against each ``src/`` in turn, alternating.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc

from repro.service import ShardedMotionService, SubscriptionManager
from repro.vector.ops import RegisterOp, ReportOp

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
SHARDS = 4
SUBSCRIPTIONS = 8
REPORTS = 1000


def motion(rng: random.Random):
    return (rng.uniform(0, Y_MAX),
            rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX))


def loaded(n: int, rng: random.Random) -> ShardedMotionService:
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=SHARDS)
    for start in range(0, n, 20000):
        ops = [RegisterOp(i, *motion(rng), 0.0)
               for i in range(start, min(n, start + 20000))]
        assert service.apply_batch(ops) == [None] * len(ops)
    return service


def subscribe(manager: SubscriptionManager, rng: random.Random,
              i: int) -> None:
    length = rng.uniform(0.02, 0.15) * Y_MAX
    y1 = rng.uniform(0.0, Y_MAX - length)
    if i % 2 == 0:
        manager.subscribe_snapshot(y1, y1 + length)
    else:
        manager.subscribe_within(y1, y1 + length, 20.0)


def probe(n: int, trials: int = 3, seed: int = 7) -> dict:
    rng = random.Random(seed)
    service = loaded(n, rng)
    took = {"attach_ms": [], "attach_mb": [], "subscribe_ms": [],
            "batch_ms": []}
    for trial in range(trials):
        start = time.perf_counter()
        SubscriptionManager(service).close()
        took["attach_ms"].append((time.perf_counter() - start) * 1e3)

        tracemalloc.start()
        manager = SubscriptionManager(service)
        took["attach_mb"].append(tracemalloc.get_traced_memory()[0] / 2**20)
        tracemalloc.stop()

        for i in range(SUBSCRIPTIONS):
            start = time.perf_counter()
            subscribe(manager, rng, i)
            took["subscribe_ms"].append((time.perf_counter() - start) * 1e3)

        reports = [ReportOp(oid, *motion(rng), 1.0 + trial)
                   for oid in rng.sample(range(n), REPORTS)]
        start = time.perf_counter()
        assert service.apply_batch(reports) == [None] * REPORTS
        took["batch_ms"].append((time.perf_counter() - start) * 1e3)
        manager.close()
    return {key: statistics.median(values) for key, values in took.items()}


if __name__ == "__main__":
    columns = ("attach_ms", "attach_mb", "subscribe_ms", "batch_ms")
    print(f"{'objects':>8} " + " ".join(f"{c:>13}" for c in columns))
    for n in (20000, 100000):
        row = probe(n)
        print(f"{n:>8} " + " ".join(f"{row[c]:13.2f}" for c in columns))
