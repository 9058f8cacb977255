"""What keeping history costs a shard (DESIGN.md §5.1, §5.9).

    PYTHONPATH=src python benchmarks/history_shard.py

A ``MotionDatabase(keep_history=True)`` against a plain one, each side
timed in alternating trials (median, seconds or milliseconds):

* ``load_s`` / ``reports_ms`` — one ``apply_batch`` of 20,000
  registers, then one of 1,000 reports at a later ``t0``;
* ``recover_s`` — ``ShardWAL.recover`` of a 5,000-object shard that took
  4 × 500 reports, a checkpoint and a 50-op tail;
* ``query_past_ms`` — 200 random ``query_past`` windows over that
  shard (history side only: a plain shard has no past).

Timings are wall-clock on whatever host runs it; compare the ratios.
"""

from __future__ import annotations

import random
import statistics
import time

from repro import MotionDatabase
from repro.service import ShardWAL
from repro.vector.ops import RegisterOp, ReportOp

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
SIDES = (False, True)


def make(keep_history: bool) -> MotionDatabase:
    return MotionDatabase(Y_MAX, V_MIN, V_MAX, keep_history=keep_history)


def motion(rng: random.Random):
    return (rng.uniform(0, Y_MAX),
            rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX))


def load_probe(rng: random.Random, trials: int = 5) -> dict:
    load = [RegisterOp(i, *motion(rng), 0.0) for i in range(20000)]
    reports = [ReportOp(i, *motion(rng), 1.0)
               for i in rng.sample(range(20000), 1000)]
    took = {(side, what): [] for side in SIDES for what in ("load", "rep")}
    for trial in range(trials):
        for side in sorted(SIDES, reverse=bool(trial % 2)):
            db = make(side)
            start = time.perf_counter()
            db.apply_batch(load)
            middle = time.perf_counter()
            db.apply_batch(reports)
            end = time.perf_counter()
            took[side, "load"].append(middle - start)
            took[side, "rep"].append((end - middle) * 1e3)
    return {key: statistics.median(times) for key, times in took.items()}


def shard_with_wal(keep_history: bool) -> tuple:
    """A 5,000-object shard and its WAL: 4 × 500 reports, a
    checkpoint, a 50-op tail (the same draws on either side)."""
    rng, db, wal = random.Random(1), make(keep_history), ShardWAL()

    def apply(ops) -> None:
        assert db.apply_batch(ops) == [None] * len(ops)
        wal.append_batch([
            ("insert" if type(op) is RegisterOp else "update",
             dict(oid=op.oid, y0=op.y0, v=op.v, t0=op.t0))
            for op in ops
        ])

    def reports(n: int, t: float) -> list:
        return [ReportOp(rng.randrange(5000), *motion(rng), t)
                for _ in range(n)]

    apply([RegisterOp(i, *motion(rng), 0.0) for i in range(5000)])
    for t in (1.0, 2.0, 3.0, 4.0):
        apply(reports(500, t))
    wal.checkpoint(db)
    apply(reports(50, 5.0))
    return db, wal


def recover_probe(trials: int = 5) -> dict:
    wals = {side: shard_with_wal(side)[1] for side in SIDES}
    took = {side: [] for side in SIDES}
    for trial in range(trials):
        for side in sorted(SIDES, reverse=bool(trial % 2)):
            start = time.perf_counter()
            wals[side].recover(lambda: make(side))
            took[side].append(time.perf_counter() - start)
    return {side: statistics.median(times) for side, times in took.items()}


def query_past_probe(rng: random.Random, n: int = 200) -> tuple:
    db, _ = shard_with_wal(True)
    windows = []
    for _ in range(n):
        y1, t1 = rng.uniform(0, 900), rng.uniform(0, 5)
        windows.append((y1, y1 + rng.uniform(5, 100), t1,
                        t1 + rng.uniform(0, 2)))
    start = time.perf_counter()
    answers = sum(len(db.query_past(*window)) for window in windows)
    per_query = (time.perf_counter() - start) / n * 1e3
    return per_query, answers, len(db.history_snapshot())


if __name__ == "__main__":
    loads = load_probe(random.Random(7))
    recovers = recover_probe()
    print(f"{'probe':>14} {'plain':>9} {'history':>9} {'ratio':>6}")
    for name, plain, kept in (
        ("load_s", loads[False, "load"], loads[True, "load"]),
        ("reports_ms", loads[False, "rep"], loads[True, "rep"]),
        ("recover_s", recovers[False], recovers[True]),
    ):
        print(f"{name:>14} {plain:9.3f} {kept:9.3f} {kept / plain:6.2f}")
    per_query, answers, archived = query_past_probe(random.Random(13))
    print(f"{'query_past_ms':>14} {'-':>9} {per_query:9.3f} "
          f"({answers} answers, {archived} archived versions)")
