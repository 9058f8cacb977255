"""What an epoch costs as one grouped index call against three (DESIGN.md §5.4).

    PYTHONPATH=src python benchmarks/epoch_grouping.py [--seed 42] [--seconds 10]

Runs each workload of the perf ledger (``benchmarks/perf``, untraced,
its own harness) twice, each run in a fresh interpreter: ``one`` as the
engine runs, one ``HybridIndex.apply_group`` an epoch, and ``three``
with every shard's index driven by the base class's three calls —
deletes, updates, inserts, each a pure-kind group of the hybrid's
split — which is how the engine flushed an epoch before.  Per workload
and arm it prints the ledger's ``update_pages`` and, over the same
``write_batch`` phase, the observation-tree leaf pages read (buffer
misses) and written per written op, and ``restart_s`` where the
workload restarts (recovery replays its log through the same hook).
The table goes to ``benchmarks/results/epoch_grouping.txt``.

Pages repeat exactly for a seed; ``restart_s`` is one wall-clock run on
whatever host runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = ROOT / "benchmarks" / "results" / "epoch_grouping.txt"
WORKLOADS = ("durable_10k", "hot_mixed_10k", "scan_100k", "pool_100k")
ARMS = ("three", "one")


def measure(workload: str, arm: str, seed: int, seconds: float) -> dict:
    """One ledger run of ``workload`` under ``arm``, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]
    from harness import Run

    from repro.bptree.tree import LEAF
    from repro.engine import MotionDatabase
    from repro.indexes.base import MobileIndex1D
    from repro.indexes.hybrid import HybridIndex
    from repro.io_sim.pager import DiskSimulator

    class ThreeCallHybrid(HybridIndex):
        apply_group = MobileIndex1D.apply_group

        def delete_batch(self, oids):
            HybridIndex.apply_group(self, oids, ())

        def update_batch(self, objs):
            HybridIndex.apply_group(self, [obj.oid for obj in objs], objs)

        def insert_batch(self, objs):
            HybridIndex.apply_group(self, (), objs)

    if arm == "three":
        init = MotionDatabase.__init__

        def three_calls(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._index.__class__ = ThreeCallHybrid

        MotionDatabase.__init__ = three_calls

    # Counted: the leaf pages a measured write batch touches, in the
    # thread applying it (hot_mixed_10k reads beside its writer), and
    # the seconds its engines spend in their index calls.
    leaves = {"reads": 0, "writes": 0, "index_s": 0.0}
    applying = threading.local()
    engine_call = (ThreeCallHybrid if arm == "three" else HybridIndex)
    apply_group = engine_call.apply_group

    def timed_group(self, leaving, arriving):
        # Only the engine's call: the three-call arm nests the hybrid's.
        if not getattr(applying, "on", False) or getattr(applying, "nested", False):
            return apply_group(self, leaving, arriving)
        applying.nested, start = True, time.perf_counter()
        try:
            return apply_group(self, leaving, arriving)
        finally:
            applying.nested = False
            leaves["index_s"] += time.perf_counter() - start

    engine_call.apply_group = timed_group
    read, write = DiskSimulator.read, DiskSimulator.write

    def counted_read(self, pid):
        misses = self.stats.reads
        page = read(self, pid)
        if getattr(applying, "on", False) and page.meta.get("kind") == LEAF:
            leaves["reads"] += self.stats.reads - misses
        return page

    def counted_write(self, page):
        write(self, page)
        if getattr(applying, "on", False) and page.meta.get("kind") == LEAF:
            leaves["writes"] += 1

    DiskSimulator.read, DiskSimulator.write = counted_read, counted_write
    apply_batch, write_batch, mixed = Run._apply_batch, Run.write_batch, Run.mixed

    def counted_apply(self, ops):
        applying.on = self.measured
        try:
            return apply_batch(self, ops)
        finally:
            applying.on = False

    def counted_write_batch(self, calls, into):
        self.measured = into is self.phases
        try:
            write_batch(self, calls, into)
        finally:
            self.measured = False

    async def counted_mixed(self, calls, into):
        self.measured = into is self.phases
        try:
            await mixed(self, calls, into)
        finally:
            self.measured = False

    Run.measured = False
    Run._apply_batch, Run.write_batch, Run.mixed = (
        counted_apply, counted_write_batch, counted_mixed
    )
    with tempfile.TemporaryDirectory() as scratch:
        run = Run(workload, seed, seconds, traced=False, scale=1.0,
                  run_dir=os.path.join(scratch, "run"))
        run.execute()
    writes = run.phases["write_batch"]
    written = writes.ops * len(writes.calls)
    figures = run.end_to_end()
    return {
        "workload": workload, "arm": arm, "correct": run.failed == 0,
        "update_pages": figures["update_pages"],
        "leaf_reads": leaves["reads"] / written,
        "leaf_writes": leaves["writes"] / written,
        "index_ms": 1e3 * leaves["index_s"] / len(writes.calls),
        "restart_s": figures["restart_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "ARM"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(*args.one, args.seed, args.seconds)))
        return 0
    lines = [
        f"epoch grouping, seed {args.seed}: pages per written op in the "
        "ledger's write_batch phase",
        f"{'workload':<14} {'arm':<5} {'update_pages':>12} "
        f"{'leaf_reads':>10} {'leaf_writes':>11} {'index_ms':>8} "
        f"{'restart_s':>9}",
    ]
    for workload in WORKLOADS:
        for arm in ARMS:
            done = subprocess.run(
                [sys.executable, __file__, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--one", workload, arm],
                capture_output=True, text=True, check=True,
            )
            row = json.loads(done.stdout.splitlines()[-1])
            if not row["correct"]:
                sys.exit(f"{workload} {arm}: the run failed its checks")
            restart = row["restart_s"]
            lines.append(
                f"{workload:<14} {arm:<5} {row['update_pages']:>12.3f} "
                f"{row['leaf_reads']:>10.3f} {row['leaf_writes']:>11.3f} "
                f"{row['index_ms']:>8.2f} "
                + (f"{restart:>9.3f}" if restart is not None else f"{'-':>9}")
            )
            print(lines[-1], flush=True)
    RESULT.parent.mkdir(exist_ok=True)
    RESULT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
