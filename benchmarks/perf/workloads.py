"""Seeded traffic generators for the four benchmark workloads.

Everything the program under test receives is generated here, from
``--seed``, and nothing here imports from ``repro`` but the op structs
of :mod:`repro.vector.ops` — a later change cannot alter the traffic
without touching the benchmark's own directory.

All four workloads draw the paper's §5 population: terrain
``[0, 1000]``, speeds ``U[0.16, 1.66]``, both directions, objects
uniform on the terrain at ``t = 0``.  What differs is size, query
class and how reads repeat:

``scan_100k`` / ``pool_100k``
    100,000 objects, the "1 %" query class (paper Fig. 7), every read
    distinct — the result cache can never hit.  The two workloads get
    byte-identical schedules (same ``family``), so their answers can be
    compared hash for hash.
``durable_10k``
    10,000 objects, the "10 %" class (Fig. 6), every read distinct.
``hot_mixed_10k``
    10,000 objects, reads drawn Zipf(1.1) from 256 standing "10 %"
    queries, so the 1,024-entry result cache holds the whole pool.

Query extents are fixed at the *means* of the paper's uniform draws
(``U[0, YQMAX]`` × ``U[0, TW]``) instead of redrawn per query: cost per
query then varies with where it lands, not with how big it is, which
is what lets a median over a few dozen queries repeat within a few
percent.

Time.  Write batches advance the update clock by 1, scalar reports by
1/100; the caps keep the clock below :data:`QUERY_EPOCH`, and every
query asks about ``[QUERY_EPOCH, QUERY_EPOCH + 20]`` — the future of
every motion in the store, the regime in which the batch and scalar
read paths are documented to agree.

Generation is lazy (how many calls a run makes depends on ``--seconds``)
but order-deterministic: each stream owns an RNG
keyed by ``(seed, family, stream)``, so how much one phase consumed
never shifts another phase's inputs.  :meth:`Schedule.digest` hashes a
fixed-length prefix of every stream from a fresh clone — two commits
fed the same seed print the same ``schedule_sha256``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

Y_MAX = 1000.0
V_MIN = 0.16
V_MAX = 1.66

#: Every query's window starts in ``[QUERY_EPOCH, QUERY_EPOCH + 20]``.
QUERY_EPOCH = 64.0
QUERY_START_SPREAD = 20.0

#: Clock advance per write batch / per scalar report, and the caps
#: that keep ``clock < QUERY_EPOCH`` (40 + 2000/100 = 60).
BATCH_TICK = 1.0
REPORT_TICK = 0.01
MAX_WRITE_BATCHES = 40
MAX_SCALAR_REPORTS = 2000

#: How long one run measures (``BENCHMARK.json`` ``run_seconds``); the
#: harness states its call counts at this length.
RUN_SECONDS = 10

READ_BATCH_OPS = 32
#: Largest write batch any workload sends (sizes the oid space).
MAX_WRITE_BATCH_OPS = 1000
STANDING_QUERIES = 256
ZIPF_EXPONENT = 1.1
NEAREST_K = 10
#: Calls per Latin-hypercube block of scalar queries: what one run
#: makes at ``RUN_SECONDS``, so a run's queries are one hypercube.
SCALAR_BLOCK = 32


@dataclass(frozen=True)
class QueryClass:
    """Fixed query extents: the means of one of the paper's classes."""

    name: str
    within_extent: float
    within_window: float
    snapshot_extent: float


#: Paper "1 %" class (YQMAX = 10, TW = 20) and "10 %" class
#: (YQMAX = 150, TW = 60), at their mean extents.  A Within of extent
#: e and window w matches about (e + mean|v|·w) / 1000 of the objects.
SMALL = QueryClass("1pct", within_extent=5.0, within_window=10.0,
                   snapshot_extent=10.0)
LARGE = QueryClass("10pct", within_extent=75.0, within_window=30.0,
                   snapshot_extent=100.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """What one workload builds and sends.

    ``family`` keys the RNG streams: workloads of one family receive
    identical inputs.  ``open_rate`` is the open-loop read rate in
    requests per second, ``write_batch_ops`` the size of one
    ``apply_batch``.
    """

    name: str
    family: str
    n: int
    query_class: QueryClass
    durable: bool
    workers: int
    hot: bool
    open_rate: float
    write_batch_ops: int
    why: str


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "scan_100k", "uniform_100k", 100_000, SMALL,
            durable=False, workers=0, hot=False, open_rate=75.0,
            write_batch_ops=1000,
            why="kernels and the paged index do the work; frontend, "
                "cache (0 hits), WAL and pool idle",
        ),
        WorkloadSpec(
            "pool_100k", "uniform_100k", 100_000, SMALL,
            durable=False, workers=2, hot=False, open_rate=75.0,
            write_batch_ops=1000,
            why="same inputs as scan_100k through 2 worker processes "
                "over shared-memory columns",
        ),
        WorkloadSpec(
            "durable_10k", "uniform_10k", 10_000, LARGE,
            durable=True, workers=0, hot=False, open_rate=150.0,
            write_batch_ops=256,
            why="replication r=2 and a file WAL dominate; kernels are "
                "10x cheaper than at 100k",
        ),
        WorkloadSpec(
            "hot_mixed_10k", "hot_10k", 10_000, LARGE,
            durable=True, workers=0, hot=True, open_rate=150.0,
            write_batch_ops=32,
            why="Zipf reads over 256 standing queries beside a paced "
                "writer: cache, frontend hop and lock waits set latency",
        ),
    )
}

WORKLOAD_NAMES = tuple(SPECS)

_STREAMS = ("population", "read_batch", "read_open", "read_scalar",
            "writes", "standing")


def _family_key(family: str) -> int:
    return int.from_bytes(hashlib.sha256(family.encode()).digest()[:4], "big")


class Schedule:
    """The lazily generated, seed-pure input of one workload run."""

    def __init__(self, spec: WorkloadSpec, seed: int, scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.n = max(64, int(round(spec.n * scale)))
        key = _family_key(spec.family)
        self._rng = {
            stream: np.random.default_rng([seed, key, i])
            for i, stream in enumerate(_STREAMS)
        }
        # The generator's own picture of the fleet, indexed by oid:
        # what it *intends* the store to hold (the oracle keeps the
        # separate record of what was acknowledged).
        capacity = self.n + MAX_WRITE_BATCHES * MAX_WRITE_BATCH_OPS
        self._y0 = np.zeros(capacity)
        self._v = np.zeros(capacity)
        self._t0 = np.zeros(capacity)
        self._live: List[int] = []
        self._slot = {}
        self._next_oid = self.n
        self.clock = 0.0
        self._standing: Optional[List] = None
        self._zipf: Optional[np.ndarray] = None
        self._write_batches = 0
        self._scalar_reports = 0

    # -- population ----------------------------------------------------------

    def _draw_velocities(self, rng, count: int) -> np.ndarray:
        speed = rng.uniform(V_MIN, V_MAX, count)
        return np.where(rng.random(count) < 0.5, speed, -speed)

    def population(self) -> List[RegisterOp]:
        """The initial fleet, oids ``0..n-1`` at ``t0 = 0``."""
        rng = self._rng["population"]
        n = self.n
        self._y0[:n] = rng.uniform(0.0, Y_MAX, n)
        self._v[:n] = self._draw_velocities(rng, n)
        self._t0[:n] = 0.0
        self._live = list(range(n))
        self._slot = {oid: oid for oid in range(n)}
        y0 = self._y0[:n].tolist()
        v = self._v[:n].tolist()
        return [RegisterOp(i, y0[i], v[i], 0.0) for i in range(n)]

    # -- reads ---------------------------------------------------------------

    def _query_at(self, kind: int, u: float, w: float):
        """The query of verb ``kind`` placed at fraction ``u`` of the
        terrain and fraction ``w`` of the start-time spread."""
        qc = self.spec.query_class
        t1 = QUERY_EPOCH + w * QUERY_START_SPREAD
        if kind == 0:
            y1 = u * (Y_MAX - qc.within_extent)
            return Within(y1, y1 + qc.within_extent, t1,
                          t1 + qc.within_window)
        if kind == 1:
            y1 = u * (Y_MAX - qc.snapshot_extent)
            return SnapshotAt(y1, y1 + qc.snapshot_extent, t1)
        return Nearest(u * Y_MAX, t1, NEAREST_K)

    def _query(self, rng, kind: int):
        return self._query_at(kind, float(rng.random()), float(rng.random()))

    def _standing_pool(self) -> List:
        if self._standing is None:
            rng = self._rng["standing"]
            self._standing = [
                self._query(rng, i % 3) for i in range(STANDING_QUERIES)
            ]
            weights = 1.0 / np.arange(1, STANDING_QUERIES + 1) ** ZIPF_EXPONENT
            self._zipf = weights / weights.sum()
        return self._standing

    def _reads(self, stream: str) -> Iterator:
        """Endless 1:1:1 Within/SnapshotAt/Nearest stream: all-distinct
        fresh queries, or Zipf draws from the standing pool when hot."""
        rng = self._rng[stream]
        if self.spec.hot:
            pool = self._standing_pool()
            while True:
                for rank in rng.choice(STANDING_QUERIES, 256, p=self._zipf):
                    yield pool[int(rank)]
        i = 0
        while True:
            yield self._query(rng, i % 3)
            i += 1

    def read_batches(self) -> Iterator[List]:
        """Closed-loop clumps of :data:`READ_BATCH_OPS` reads: Zipf
        draws when hot, else all-distinct queries whose positions and
        start times form a Latin hypercube over the clump, so that one
        clump costs about what the next does."""
        if self.spec.hot:
            reads = self._reads("read_batch")
            while True:
                yield [next(reads) for _ in range(READ_BATCH_OPS)]
        rng = self._rng["read_batch"]
        size = READ_BATCH_OPS
        while True:
            u = (rng.permutation(size) + rng.random(size)) / size
            w = (rng.permutation(size) + rng.random(size)) / size
            yield [self._query_at(i % 3, float(u[i]), float(w[i]))
                   for i in range(size)]

    def open_arrivals(self) -> Iterator[Tuple[float, object]]:
        """Poisson arrivals ``(due_offset_s, op)`` at ``spec.open_rate``."""
        rng = self._rng["read_open"]
        reads = self._reads("read_open")
        due = 0.0
        while True:
            for gap in rng.exponential(1.0 / self.spec.open_rate, 256):
                due += float(gap)
                yield due, next(reads)

    def scalar_calls(self) -> Iterator[Tuple]:
        """Endless ``(Within, SnapshotAt, Nearest)`` calls for the
        scalar verbs, always fresh queries (the scalar path has no
        result cache to exercise).

        A query on the paged index costs 3 to 100 ms depending on where
        it lands, so placement is stratified: each block of
        :data:`SCALAR_BLOCK` calls is, per verb, a Latin hypercube over
        (position, start time) — every row and column of the
        ``SCALAR_BLOCK``-cell grid is hit exactly once — which lets the
        mean over a few dozen queries repeat from seed to seed (pages
        per query over ten seeds of ``scan_100k``: 3.7 % spread with
        blocks of 16, 1.3 % with one block of 32).
        """
        rng = self._rng["read_scalar"]
        size = SCALAR_BLOCK
        while True:
            columns = []
            for kind in range(3):
                u = (rng.permutation(size) + rng.random(size)) / size
                w = (rng.permutation(size) + rng.random(size)) / size
                columns.append([
                    self._query_at(kind, float(u[i]), float(w[i]))
                    for i in range(size)
                ])
            yield from zip(*columns)

    # -- writes --------------------------------------------------------------

    def _remove_live(self, oid: int) -> None:
        slot = self._slot.pop(oid)
        last = self._live.pop()
        if last != oid:
            self._live[slot] = last
            self._slot[last] = slot

    def _report_for(self, rng, oid: int) -> ReportOp:
        """The object reports where it is now, with a fresh velocity.

        Positions are clamped to the terrain (the paper's border
        update) and a clamped object heads back inside.
        """
        y = self._y0[oid] + self._v[oid] * (self.clock - self._t0[oid])
        speed = float(rng.uniform(V_MIN, V_MAX))
        if y <= 0.0:
            y, v = 0.0, speed
        elif y >= Y_MAX:
            y, v = Y_MAX, -speed
        else:
            v = speed if rng.random() < 0.5 else -speed
        y = float(y)
        self._y0[oid], self._v[oid], self._t0[oid] = y, v, self.clock
        return ReportOp(oid, y, v, self.clock)

    @property
    def write_batches_left(self) -> int:
        return MAX_WRITE_BATCHES - self._write_batches

    def write_batch(self, size: Optional[int] = None) -> Optional[List]:
        """The next write batch (``spec.write_batch_ops`` ops unless
        ``size`` says otherwise), or ``None`` once the clock cap is hit.

        96 % reports, 2 % registers, 2 % deregisters (reports only for
        the hot workload's paced writer), distinct oids within a batch,
        every op valid against the fleet as the generator left it — no
        operation is meant to fail.
        """
        if self._write_batches >= MAX_WRITE_BATCHES:
            return None
        if size is None:
            size = self.spec.write_batch_ops
        reports_only = self.spec.hot
        # Scaled-down smoke fleets are smaller than a full batch.
        size = min(size, max(4, len(self._live) // 4))
        self._write_batches += 1
        self.clock += BATCH_TICK
        rng = self._rng["writes"]
        churn = 0 if reports_only else max(1, size // 50)
        picks = rng.choice(len(self._live), size - churn, replace=False)
        targets = [self._live[int(i)] for i in picks]
        ops: List = [None] * size
        order = rng.permutation(size)
        for pos, oid in zip(order[: len(targets) - churn], targets):
            ops[int(pos)] = self._report_for(rng, oid)
        for pos, oid in zip(order[len(targets) - churn: len(targets)],
                            targets[len(targets) - churn:]):
            self._remove_live(oid)
            ops[int(pos)] = DeregisterOp(oid)
        for pos in order[len(targets):]:
            oid = self._next_oid
            self._next_oid += 1
            y = float(rng.uniform(0.0, Y_MAX))
            v = float(self._draw_velocities(rng, 1)[0])
            self._y0[oid], self._v[oid], self._t0[oid] = y, v, self.clock
            self._slot[oid] = len(self._live)
            self._live.append(oid)
            ops[int(pos)] = RegisterOp(oid, y, v, self.clock)
        return ops

    def scalar_report(self) -> Optional[ReportOp]:
        """The next single report, or ``None`` at the clock cap."""
        if self._scalar_reports >= MAX_SCALAR_REPORTS:
            return None
        self._scalar_reports += 1
        self.clock += REPORT_TICK
        rng = self._rng["writes"]
        oid = self._live[int(rng.integers(len(self._live)))]
        return self._report_for(rng, oid)

    # -- identity ------------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over a fixed-length prefix of every stream.

        Walks a fresh clone, so the digest depends on ``(spec.family,
        seed, scale)`` only — never on how far a run got.
        """
        clone = Schedule(self.spec, self.seed, self.scale)
        h = hashlib.sha256()

        def feed(op) -> None:
            h.update(type(op).__name__.encode())
            fields = [getattr(op, f) for f in op.__dataclass_fields__]
            h.update(struct.pack(f"<{len(fields)}d", *map(float, fields)))

        clone.population()
        for column in (clone._y0, clone._v):
            h.update(column[: clone.n].tobytes())
        batches = clone.read_batches()
        for _ in range(8):
            for op in next(batches):
                feed(op)
        arrivals = clone.open_arrivals()
        for _ in range(64):
            due, op = next(arrivals)
            h.update(struct.pack("<d", due))
            feed(op)
        calls = clone.scalar_calls()
        for _ in range(SCALAR_BLOCK):
            for op in next(calls):
                feed(op)
        for _ in range(8):
            for op in clone.write_batch():
                feed(op)
        for _ in range(64):
            feed(clone.scalar_report())
        return h.hexdigest()
