"""Where a write set's column plan starts to pay (DESIGN.md §5.10).

    PYTHONPATH=src python benchmarks/plan_breakeven.py

Two identical 10,000-object services, ``shards=4``, take the same
``apply_batch`` of ``m`` reports (hash router, distinct oids, every row
plain), alternating which goes first: one plans every batch as columns
(``_COLUMNS_MIN_SET = 0``), one walks every row through ``_plan_write``
(``_COLUMNS_MIN_SET = inf``).  The time is the plan's own:
``_stage_batch`` plus the catalog commit (``_commit_write`` /
``_commit_rows``).  The median ratio, columns over walked, is printed
per ``m`` for the plain service and the replicated one (``r = 2``, no
log); where it falls below 1 is
``ShardedMotionService._COLUMNS_MIN_SET``.

Timings are wall-clock on whatever host runs it; compare the ratios.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from repro.service import FaultTolerantMotionService, ShardedMotionService
from repro.vector.ops import RegisterOp, ReportOp

SET_SIZES = (2, 8, 16, 24, 32, 40, 48, 64, 128)
POPULATION = 10_000
PLAN = ("_stage_batch", "_commit_write", "_commit_rows")


def timed(service, spent):
    """Add the seconds each :data:`PLAN` call of ``service`` takes."""
    for name in PLAN:
        real = getattr(service, name)

        def wrapper(*args, _real=real, **kwargs):
            start = time.perf_counter()
            try:
                return _real(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start

        setattr(service, name, wrapper)


def twins(cls, kwargs, rng):
    ops = [
        RegisterOp(oid, rng.uniform(0, 1000.0),
                   rng.choice((1.0, -1.0)) * rng.uniform(0.16, 1.66), 0.0)
        for oid in range(POPULATION)
    ]
    services, spent = {}, {}
    for cut in (0, math.inf):
        service = cls(1000.0, 0.16, 1.66, shards=4, **kwargs)
        service._COLUMNS_MIN_SET = cut
        for begin in range(0, POPULATION, 2_000):
            assert not any(service.apply_batch(ops[begin:begin + 2_000]))
        spent[cut] = [0.0]
        timed(service, spent[cut])
        services[cut] = service
    return services, spent


def probe(cls, kwargs, trials: int = 60) -> None:
    rng = random.Random(7)
    services, spent = twins(cls, kwargs, rng)
    print(f"{cls.__name__} {kwargs}")
    print(f"{'m':>4} {'columns_us':>11} {'walked_us':>10} {'ratio':>6}")
    clock = 1.0
    for m in SET_SIZES:
        took = {cut: [] for cut in services}
        for trial in range(trials):
            clock += 1.0
            batch = [
                ReportOp(oid, rng.uniform(0, 1000.0),
                         rng.choice((1.0, -1.0)) * rng.uniform(0.16, 1.66),
                         clock)
                for oid in rng.sample(range(POPULATION), m)
            ]
            order = list(services)
            if trial % 2:
                order.reverse()
            for cut in order:
                spent[cut][0] = 0.0
                assert not any(services[cut].apply_batch(batch))
                took[cut].append(spent[cut][0])
        columns, walked = (statistics.median(took[cut]) for cut in services)
        ratio = statistics.median(
            a / b for a, b in zip(took[0], took[math.inf])
        )
        print(f"{m:>4} {columns * 1e6:>11.1f} {walked * 1e6:>10.1f} "
              f"{ratio:>6.2f}")


if __name__ == "__main__":
    probe(ShardedMotionService, {})
    probe(FaultTolerantMotionService, {"replication_factor": 2})
