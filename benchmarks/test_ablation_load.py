"""Ablation: where a load's set-up time goes, before and after the load
became columns.

The ledger's ``setup_s`` on ``scan_100k`` is one 100,000-register
``ShardedMotionService(shards=4).apply_batch`` plus one probe query.
This bench times the stages of that load in a fresh interpreter per
run — the service's plan (``_stage_batch``), the shards' applies
(``_apply_sub_batch``) and inside them ``HybridIndex.insert_batch``,
the forest's ``bulk_build`` and ``MotionColumns.apply_events``, the
listener pass, and the garbage collector (collections and seconds,
from ``gc.callbacks``) — and reads ``VmHWM`` at the end.  The engine's
own loop is what the shard applies spend outside the hybrid and the
table.  Every stage name exists at both commits (the listener pass
under its name at each), so the same probe times both: the parent's ``src/`` is taken with ``git archive`` of
:data:`PARENT` (rows are skipped, with the reason in the title, where
that is not possible), and the change is this tree.

1,000,000 registers run when the host has :data:`MIN_FREE_GB` of
available memory, and are skipped with the reason otherwise.

Run as a script with ``--pairs N`` it also runs the ledger itself,
``benchmarks/perf/run.py --workload scan_100k``, N times on each
commit, seeds 900 onward, alternating which commit goes first, and
writes the pairs to ``ablation_load_ledger.txt``.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

import pytest

from repro.bench import Table

from conftest import save_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The commit before the load became columns.
PARENT = "9d9f931"
SIZES = (100_000, 1_000_000)
#: Runs per (commit, size): the median is reported.
REPEATS = {100_000: 3, 1_000_000: 1}
MIN_FREE_GB = 4.0

PROBE = r"""
import gc, json, random, sys, time
from repro import ShardedMotionService
from repro.engine import MotionDatabase
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.indexes.hybrid import HybridIndex
from repro.vector.columns import MotionColumns
from repro.vector.ops import RegisterOp, Within

n, seed = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(seed)
ops = [RegisterOp(i, rng.uniform(0.0, 1000.0),
                  rng.choice((1.0, -1.0)) * rng.uniform(0.16, 1.66), 0.0)
       for i in range(n)]
spent = dict.fromkeys(("plan", "shards", "hybrid", "bulk_build",
                       "apply_events", "listeners", "gc"), 0.0)

def timed(stage, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    return wrapper

S = ShardedMotionService
S._stage_batch = timed("plan", S._stage_batch)
S._apply_sub_batch = timed("shards", S._apply_sub_batch)
# The listener pass: one call of _notify since the listeners take columns.
notify = "_notify" if hasattr(S, "_notify") else "_notify_update_batch"
setattr(S, notify, timed("listeners", getattr(S, notify)))
HybridIndex.insert_batch = timed("hybrid", HybridIndex.insert_batch)
MotionColumns.apply_events = timed("apply_events", MotionColumns.apply_events)
HoughYForestIndex.bulk_build = classmethod(
    timed("bulk_build", HoughYForestIndex.bulk_build.__func__))
collections, gc_start = [0], [0.0]

def on_gc(phase, info):
    if phase == "start":
        gc_start[0] = time.perf_counter()
    else:
        collections[0] += 1
        spent["gc"] += time.perf_counter() - gc_start[0]

gc.collect()
gc.callbacks.append(on_gc)
start = time.perf_counter()
service = S(1000.0, 0.16, 1.66, shards=4)
assert not any(service.apply_batch(ops))
service.query_batch([Within(0.0, 10.0, 64.0, 65.0)])
setup = time.perf_counter() - start
gc.callbacks.remove(on_gc)
status = dict(line.split(":", 1) for line in open("/proc/self/status"))
spent.update(setup=setup, collections=collections[0],
             vmhwm_mb=int(status["VmHWM"].split()[0]) / 1024)
print(json.dumps(spent))
"""

COLUMNS = ("setup_s", "plan_s", "shards_s", "hybrid_s", "bulk_build_s",
           "apply_events_s", "engine_loop_s", "listeners_s",
           "gc_collections", "gc_s", "vmhwm_mb")


def parent_tree(directory, paths=("src",)):
    """Extract :data:`PARENT`'s ``paths`` into ``directory``; the reason
    it could not, or ``None``."""
    try:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", PARENT, *paths],
            capture_output=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"parent {PARENT} not available ({exc})"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)
    return None


def probe(src, n, seed):
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(n), str(seed)],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return json.loads(out.splitlines()[-1])


def stage_row(runs):
    """The median run (by ``setup_s``) as a row of :data:`COLUMNS`."""
    run = sorted(runs, key=lambda r: r["setup"])[len(runs) // 2]
    loop = run["shards"] - run["hybrid"] - run["apply_events"]
    return [
        round(run["setup"], 3), round(run["plan"], 3),
        round(run["shards"], 3), round(run["hybrid"], 3),
        round(run["bulk_build"], 3), round(run["apply_events"], 3),
        round(loop, 3), round(run["listeners"], 3),
        run["collections"], round(run["gc"], 3), round(run["vmhwm_mb"], 1),
    ]


def available_gb():
    with open("/proc/meminfo") as handle:
        info = dict(line.split(":", 1) for line in handle)
    return int(info["MemAvailable"].split()[0]) / 2**20


def test_load_stages():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status")
    notes = []
    with tempfile.TemporaryDirectory() as scratch:
        missing = parent_tree(scratch)
        trees = [("change", os.path.join(ROOT, "src"))]
        if missing is None:
            trees.insert(0, ("parent", os.path.join(scratch, "src")))
        else:
            notes.append(missing)
        table = Table(["objects", "code", *COLUMNS])
        for n in SIZES:
            if n > SIZES[0] and available_gb() < MIN_FREE_GB:
                notes.append(
                    f"{n:,} skipped: {available_gb():.1f} GB available, "
                    f"{MIN_FREE_GB} needed"
                )
                continue
            for code, src in trees:
                runs = [probe(src, n, seed) for seed in range(REPEATS[n])]
                table.rows.append([n, code, *stage_row(runs)])
    title = (
        "Ablation: one 4-shard apply_batch of n registers plus a probe "
        f"query, stage seconds (median of {REPEATS[SIZES[0]]} runs at "
        f"100k, 1 at 1M; parent = {PARENT}; host: {os.cpu_count()} CPUs)"
    )
    if notes:
        title += "; " + "; ".join(notes)
    print(save_table("ablation_load", table, title))
    change = [row for row in table.rows if row[1] == "change"]
    assert change, "the change's own rows always run"


def ledger_pairs(pairs):
    """Alternating ``run.py --workload scan_100k`` runs on both commits,
    seeds 900 onward; writes ``ablation_load_ledger.txt``."""
    with tempfile.TemporaryDirectory() as scratch:
        missing = parent_tree(scratch, ("src", "benchmarks/perf"))
        if missing is not None:
            raise SystemExit(missing)
        trees = {"parent": scratch, "change": ROOT}
        table = Table(["seed", "first", "parent_setup_s", "change_setup_s",
                       "parent_rss_mb", "change_rss_mb"])
        for k in range(pairs):
            seed = 900 + k
            order = ("parent", "change")
            if k % 2:
                order = order[::-1]
            got = {}
            for code in order:
                out = subprocess.run(
                    [sys.executable, "benchmarks/perf/run.py",
                     "--workload", "scan_100k", "--seed", str(seed)],
                    cwd=trees[code], capture_output=True, text=True,
                    check=True,
                ).stdout
                record = json.loads(out.strip().splitlines()[-1])
                assert record["correct"] and not record["failed"], record
                got[code] = record["metrics"]
            table.rows.append([
                seed, order[0],
                round(got["parent"]["setup_s"]["value"], 3),
                round(got["change"]["setup_s"]["value"], 3),
                round(got["parent"]["peak_rss_mb"]["value"], 1),
                round(got["change"]["peak_rss_mb"]["value"], 1),
            ])
    parent = sorted(row[2] for row in table.rows)
    change = sorted(row[3] for row in table.rows)
    wins = sum(row[3] < row[2] for row in table.rows)
    quartiles = statistics.quantiles(parent, n=4)
    title = (
        f"Ledger: scan_100k setup_s, {pairs} alternating pairs "
        f"(parent = {PARENT}; host: {os.cpu_count()} CPUs); change wins "
        f"{wins}/{pairs}, median {statistics.median(parent):.3f} -> "
        f"{statistics.median(change):.3f} s, parent IQR "
        f"{quartiles[2] - quartiles[0]:.3f} s"
    )
    print(save_table("ablation_load_ledger", table, title))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    ledger_pairs(parser.parse_args().pairs)
