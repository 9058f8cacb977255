"""Ablation: what durability costs (ISSUE 6).

Update throughput of one ShardWAL-backed shard under each persistence
regime: the in-memory null backend (the pre-durability baseline), then
the on-disk backend per fsync policy.  ``always`` buys the strongest
contract — every acknowledged update survives a power cut — at the
price of one fsync per append; ``batch:8`` amortizes that over eight
appends; ``never`` rides the page cache and only checkpoints are
durable.  The table records the contract/throughput trade so the
``wal_fsync`` / ``soak --fsync`` defaults stay an informed choice,
beside the bytes each update costs on disk: its log record (41-byte
struct + 8-byte frame) and its share of the checkpoints (one whenever
the log tail reaches the shard's ``N`` objects, 32 bytes an object
plus a header: about 32 bytes an update).
"""

import os
import random
import statistics
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
ROUNDS = 5

REGIMES = [
    ("memory", None),
    ("file-never", "never"),
    ("file-batch8", "batch:8"),
    ("file-always", "always"),
]


class MeteredBackend(FileWALBackend):
    """The file backend, counting the bytes its two write paths add."""

    log_bytes = 0
    checkpoint_bytes = 0

    def append_many(self, payloads):
        before = self._log.size
        super().append_many(payloads)
        self.log_bytes += self._log.size - before

    def checkpoint(self, payload):
        super().checkpoint(payload)
        name = self._store.stats()["checkpoint"]
        self.checkpoint_bytes += os.path.getsize(
            os.path.join(self.directory, name)
        )


def counting_hook(counters):
    def record(name, delta=1):
        counters[name] = counters.get(name, 0) + delta
    return record


def drive_updates(backend) -> float:
    """Apply the seeded update storm through one WAL; returns seconds.
    A metered backend's byte counters cover the storm only."""
    rng = random.Random(13)
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    wal = ShardWAL(backend=backend)
    for oid in range(N):
        y0, v = rng.uniform(0, Y_MAX), rng.uniform(V_MIN, V_MAX)
        db.register(oid, y0, v, 0.0)
        wal.append(kind="insert", oid=oid, y0=y0, v=v, t0=0.0)
    wal.checkpoint(db)
    if backend is not None:
        backend.log_bytes = backend.checkpoint_bytes = 0
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


def run_regime(name, fsync):
    """One storm: ``(seconds, fsyncs, log bytes, checkpoint bytes)``."""
    if fsync is None:
        return drive_updates(None), 0, 0, 0
    # Cumulative across log segments (they roll at each checkpoint)
    # and the checkpoint store — the segment's own counter resets.
    counters = {}
    with tempfile.TemporaryDirectory(
        prefix=f"repro-bench-{name}-"
    ) as directory:
        backend = MeteredBackend(
            directory, fsync=fsync, on_event=counting_hook(counters),
        )
        elapsed = drive_updates(backend)
    return (elapsed, counters.get("fsync", 0), backend.log_bytes,
            backend.checkpoint_bytes)


def run_durability_sweep():
    table = Table(headers=["regime", "updates_s", "fsyncs", "rel_cost",
                           "log_B_per_update", "ckpt_B_per_update"])
    # Rounds alternate the regimes so host drift hits each alike; the
    # median round is reported (the byte and fsync counts are exact).
    runs = {name: [] for name, _ in REGIMES}
    for _ in range(ROUNDS):
        for name, fsync in REGIMES:
            runs[name].append(run_regime(name, fsync))
    baseline = statistics.median(run[0] for run in runs["memory"])
    for name, _ in REGIMES:
        elapsed = statistics.median(run[0] for run in runs[name])
        _, fsyncs, log_bytes, checkpoint_bytes = runs[name][-1]
        table.rows.append([
            name,
            round(UPDATES / elapsed),
            fsyncs,
            round(elapsed / baseline, 2),
            round(log_bytes / UPDATES, 1),
            round(checkpoint_bytes / UPDATES, 1),
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
    # Every file regime writes the same bytes: one 49-byte framed
    # record per update, and the same checkpoints.
    for column in ("log_B_per_update", "ckpt_B_per_update"):
        assert len(set(table.column(column)[1:])) == 1
    assert table.column("log_B_per_update")[1] == 49.0
