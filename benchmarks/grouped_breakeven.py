"""Where the columnar grouped write starts to pay (DESIGN.md §5.4).

    PYTHONPATH=src python benchmarks/grouped_breakeven.py

Two probes, each a median over alternating trials, printed as tables:

* ``splice`` — one key-sorted run of ``L`` fresh inserts, all routed to
  one leaf of a paper-sized (B = 341) observation tree bulk-loaded with
  40,000 records at fill 0.8, through
  ``ObservationTree.apply_sorted_columns`` with the splice forced
  (``min_run=1``) and with the record loop only.  Two identical trees,
  another leaf each trial.  Where the ratio falls below 1 is
  ``HoughYForestIndex.SPLICE_MIN_RUN``.
* ``group`` — ``update_batch`` of ``m`` objects and ``insert_batch`` of
  ``m`` new ones on two identical 25,000-object forests, one writing
  every group as columns (``COLUMNS_MIN_GROUP = 0``), one record by
  record.  Where the ratio falls below 1, in ops (an update is two),
  is ``HoughYForestIndex.COLUMNS_MIN_GROUP``.

Timings are wall-clock on whatever host runs it; compare the ratios.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

from repro.bptree.tree import INSERT
from repro.core import LinearMotion1D, MobileObject1D, MotionModel, Terrain1D
from repro.indexes import HoughYForestIndex
from repro.indexes.hough_y_forest import ObservationTree
from repro.io_sim.pager import DiskSimulator

RUN_LENGTHS = (4, 8, 12, 16, 20, 24, 32, 48)
GROUP_SIZES = (1, 8, 16, 32, 64, 128, 500)


def splice_probe(rng: random.Random, trials: int = 300) -> None:
    records = sorted(((0, rng.uniform(0, 1e6), i), 1.0) for i in range(40000))
    keys = [key for key, _ in records]
    trees = {
        side: ObservationTree.bulk_load(DiskSimulator(), records, 341, fill=0.8)
        for side in (1, math.inf)
    }
    oid = 10**6
    print(f"{'L':>4} {'splice_us':>10} {'loop_us':>10} {'ratio':>6}")
    for length in RUN_LENGTHS:
        took = {side: [] for side in trees}
        for trial in range(trials):
            j = rng.randrange(len(keys) - 1)
            b = np.sort([rng.uniform(keys[j][1], keys[j + 1][1])
                         for _ in range(length)])
            columns = (
                np.zeros(length, np.int64), b,
                np.arange(oid, oid + length),
                np.full(length, INSERT, np.int8), np.ones(length),
            )
            oid += length
            for side in sorted(trees, reverse=bool(trial % 2)):
                start = time.perf_counter()
                trees[side].apply_sorted_columns(*columns, min_run=side)
                took[side].append(time.perf_counter() - start)
        splice, loop = (statistics.median(took[s]) * 1e6 for s in (1, math.inf))
        print(f"{length:4d} {splice:10.1f} {loop:10.1f} {splice / loop:6.2f}")


def group_probe(rng: random.Random) -> None:
    model = MotionModel(Terrain1D(1000.0), 0.16, 1.66)

    def motion(t0: float) -> LinearMotion1D:
        return LinearMotion1D(rng.uniform(0, 1000),
                              rng.choice((1, -1)) * rng.uniform(0.16, 1.66), t0)

    population = [MobileObject1D(i, motion(rng.uniform(0, 10)))
                  for i in range(25000)]
    forests = {
        name: type(name, (HoughYForestIndex,), {"COLUMNS_MIN_GROUP": gate})
        .bulk_build(model, population)
        for name, gate in (("columns", 0), ("records", math.inf))
    }
    fresh = iter(range(10**6, 10**7))
    print(f"{'kind':>6} {'m':>5} {'ops':>5} {'columns_ms':>11} "
          f"{'records_ms':>11} {'ratio':>6}")
    for kind in ("update", "insert"):
        for m in GROUP_SIZES:
            took = {name: [] for name in forests}
            for trial in range(max(30, 3000 // m)):
                if kind == "update":
                    oids = rng.sample(range(25000), m)
                else:
                    oids = [next(fresh) for _ in range(m)]
                group = [MobileObject1D(oid, motion(20.0)) for oid in oids]
                for name in sorted(forests, reverse=bool(trial % 2)):
                    apply = getattr(forests[name], f"{kind}_batch")
                    start = time.perf_counter()
                    apply(group)
                    took[name].append(time.perf_counter() - start)
            columns, records = (
                statistics.median(took[n]) * 1e3 for n in ("columns", "records")
            )
            ops = 2 * m if kind == "update" else m
            print(f"{kind:>6} {m:5d} {ops:5d} {columns:11.4f} "
                  f"{records:11.4f} {columns / records:6.2f}")


if __name__ == "__main__":
    splice_probe(random.Random(5))
    print()
    group_probe(random.Random(11))
