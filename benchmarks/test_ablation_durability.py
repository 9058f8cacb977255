"""Ablation: what durability costs (ISSUE 6).

Update throughput of one ShardWAL-backed shard under each persistence
regime: the in-memory null backend (the pre-durability baseline), then
the on-disk backend per fsync policy.  ``always`` buys the strongest
contract — every acknowledged update survives a power cut — at the
price of one fsync per append; ``batch:8`` amortizes that over eight
appends; ``never`` rides the page cache and only checkpoints are
durable.  The table records the contract/throughput trade so the
``wal_fsync`` / ``soak --fsync`` defaults stay an informed choice.
"""

import random
import tempfile
import time

from repro.bench import Table
from repro.engine import MotionDatabase
from repro.service import ShardWAL
from repro.storage import FileWALBackend

from conftest import save_table

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
N = 400
UPDATES = 2000
CHECKPOINT_EVERY = 64

REGIMES = [
    ("memory", None),
    ("file-never", "never"),
    ("file-batch8", "batch:8"),
    ("file-always", "always"),
]


def counting_hook(counters):
    def record(name, delta=1):
        counters[name] = counters.get(name, 0) + delta
    return record


def drive_updates(backend) -> float:
    """Apply the seeded update storm through one WAL; returns seconds."""
    rng = random.Random(13)
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    wal = ShardWAL(checkpoint_every=CHECKPOINT_EVERY, backend=backend)
    for oid in range(N):
        y0, v = rng.uniform(0, Y_MAX), rng.uniform(V_MIN, V_MAX)
        db.register(oid, y0, v, 0.0)
        wal.append(kind="insert", oid=oid, y0=y0, v=v, t0=0.0)
    wal.checkpoint(db)
    start = time.perf_counter()
    for seq in range(1, UPDATES + 1):
        oid = rng.randrange(N)
        y0 = rng.uniform(0, Y_MAX)
        v = rng.uniform(V_MIN, V_MAX) * (1 if seq % 2 else -1)
        t0 = float(seq)
        db.report(oid, y0, v, t0)
        wal.append(kind="update", oid=oid, y0=y0, v=v, t0=t0)
        wal.maybe_checkpoint(db)
    elapsed = time.perf_counter() - start
    wal.close()
    return elapsed


def run_durability_sweep():
    table = Table(headers=["regime", "updates_s", "fsyncs", "rel_cost"])
    baseline = None
    for name, fsync in REGIMES:
        # Cumulative across log segments (they roll at each checkpoint)
        # and the checkpoint store — the segment's own counter resets.
        counters = {}
        if fsync is None:
            elapsed = drive_updates(None)
        else:
            with tempfile.TemporaryDirectory(
                prefix=f"repro-bench-{name}-"
            ) as directory:
                backend = FileWALBackend(
                    directory, fsync=fsync,
                    on_event=counting_hook(counters),
                )
                elapsed = drive_updates(backend)
        fsyncs = counters.get("fsync", 0)
        if baseline is None:
            baseline = elapsed
        table.rows.append([
            name,
            round(UPDATES / elapsed),
            fsyncs,
            round(elapsed / baseline, 2),
        ])
    return table


def test_durability_cost(benchmark):
    table = benchmark.pedantic(run_durability_sweep, rounds=1, iterations=1)
    print(save_table(
        "durability", table,
        "Ablation: update throughput per WAL persistence regime"
    ))
    regimes = table.column("regime")
    rates = table.column("updates_s")
    assert regimes[0] == "memory"
    # Durability is never free, and the policy ladder is monotone in
    # contract strength; throughput must stay usable even at always.
    assert all(rate > 0 for rate in rates)
    by_name = dict(zip(regimes, rates))
    assert by_name["file-always"] <= by_name["memory"]
    # fsync counts reflect the policies: never < batch:8 < always.
    fsyncs = dict(zip(regimes, table.column("fsyncs")))
    assert fsyncs["file-never"] < fsyncs["file-batch8"]
    assert fsyncs["file-batch8"] < fsyncs["file-always"]
