"""One workload run: build the service, drive the phases, check, clean up.

Everything here talks to the program through its public surface only —
constructors, the write and read verbs, ``AsyncFrontend``,
``service_stats()``, ``query_cache.stats()``, ``shard_status()`` — and
times it from outside.

Phases (closed loop = one client that waits for each reply; open loop =
Poisson arrivals sent on schedule and timed from their due time):

``read_batch``   closed loop, ``AsyncFrontend.submit_many`` of 32 ops
``read_open``    open loop through ``AsyncFrontend.submit``
``read_scalar``  closed loop, ``within`` / ``snapshot_at`` / ``nearest``
                 straight on the service (the paged index), buffers
                 cleared before each query (the paper's protocol)
``write_batch``  closed loop, ``apply_batch`` of the workload's batch
                 size (1,000 ops at 100k, 256 durable; 96/2/2)
``write_scalar`` closed loop, one ``report`` per call
``mixed``        hot_mixed_10k only: open-loop Zipf reads while one
                 writer thread applies a 32-op report batch every 0.5 s
``restart``      durable_10k only: copy the WAL directory without
                 ``close()``, cut each log at its synced size, restore

Every phase is boxed by a *count* of calls (:data:`PLAN`, in proportion
to ``--seconds``), never by the clock, so every run of one seed does
the same work and the page and byte counts repeat exactly.  The counts
are cut into :data:`ROUNDS` rounds and every round runs a slice of
every phase: a write costs more the more reads and writes came before
it (the result cache fills and every write scans it), and interleaving
makes each phase sample the whole run's range of states.

What a timing reports.  A throughput is operations over the summed
call time of the phase, a latency the median of its calls, as the issue
defines them, on raw times.  The seed host slows by 1.3-2x for minutes
at a time, and over ten back-to-back runs every one of them spreads
5-50 % whatever the estimator (the lower quartile, the lower decile and
the minimum of the per-call times were tried: they answer the host's
millisecond bursts, not its slow minutes, and content makes quantiles of
unlike calls worse than their sum) — which is why none of them is in the
driver's gated list (``catalog.py``; README.md, *Steadiness*).

Because reads and writes interleave, every read slice is checked
against the oracle before the next write slice runs.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
import spans
from catalog import END_TO_END
from workloads import (
    MAX_WRITE_BATCH_OPS,
    MAX_WRITE_BATCHES,
    QUERY_EPOCH,
    READ_BATCH_OPS,
    RUN_SECONDS,
    SPECS,
    V_MAX,
    V_MIN,
    Y_MAX,
    Schedule,
)

from repro.service.frontend import AsyncFrontend, Overloaded
from repro.service.replication import FaultTolerantMotionService
from repro.service.service import ShardedMotionService
from repro.vector.ops import SnapshotAt, Within
from repro.vector.shm import (
    TornSegmentError,
    attach_segment,
    live_segment_names,
    read_snapshot,
)

SHARDS = 4
REPLICATION = 2
#: The soak's frozen durability policy; stated in every output.
WAL_FSYNC = "batch:32"
LOAD_CHUNK = 2000
PACED_PERIOD_S = 0.5

#: Slices every phase's calls are cut into (see the module text).  A
#: traced run traces the even rounds and leaves the odd ones untraced,
#: so the two sides of trace_overhead_ratio see the same stretch of host.
ROUNDS = 5

#: Answers re-checked per read phase (spread over its slices).
ORACLE_SAMPLE = 200
#: Leading read batches a slice keeps, for the oracle and (first round)
#: the answers digest; the rest are dropped at once, so that peak
#: memory is the program's and not the harness's.
KEPT_BATCHES = 3
#: Leading open-loop answers a slice keeps for the oracle (several
#: times its share of the sample: reads that overlap a write are
#: skipped).
KEPT_OPEN = 4 * -(-ORACLE_SAMPLE // ROUNDS)

#: Calls of the warm-up (discarded), and the least a timed phase makes
#: per run however short ``--seconds`` (what the smoke run relies on).
WARM_CALLS = {"read_batch": 3, "read_scalar": 2, "write_batch": 1,
              "write_scalar": 10, "mixed": 1}
LEAST_CALLS = {"read_batch": 5, "read_scalar": 5, "write_batch": 3,
               "write_scalar": 25, "mixed": 5}
WARM_OPEN_S = 0.3

#: Per workload: the phases it runs and their calls per run at
#: ``--seconds RUN_SECONDS``; the counts scale with ``--seconds``.
#: ``read_open`` is given in seconds of arrival schedule instead,
#: ``mixed`` in batches of its paced writer (one per
#: :data:`PACED_PERIOD_S`).  Each workload runs the phases the issue
#: designed it for, plus ``read_scalar`` and a write-batch phase on all
#: four (``query_pages`` and ``update_pages`` are in the driver's gated
#: list, which every workload must report) and a short ``write_scalar``
#: on the 100k ones (the only place ``ShardedMotionService.report``
#: runs, which the traced pass must decompose).  The two 100k workloads
#: get the same plan, hence byte-identical inputs.  Sized so that a run
#: measures for about ``RUN_SECONDS`` on the seed host at its fastest:
#: a 100k read batch takes 0.1 s, a 1,000-op write batch there 0.9 s, a
#: durable 256-op batch 0.4 s (four full-shard checkpoints), a durable
#: report 1.5 ms; ``durable_10k`` then ends with the restart drill,
#: about 5 s.
_PLAN_100K = {"read_batch": 25, "read_open": 2.5, "read_scalar": 32,
              "write_batch": 4, "write_scalar": 400}
PLAN = {
    "scan_100k": _PLAN_100K,
    "pool_100k": _PLAN_100K,
    "durable_10k": {"write_scalar": 1500, "write_batch": 8,
                    "read_scalar": 32},
    "hot_mixed_10k": {"mixed": 20, "read_scalar": 32},
}

#: The restart drill: a barrier batch small enough to leave every
#: shard's log tail below the 64-record checkpoint threshold (synced,
#: because the fault-tolerant ``apply_batch`` syncs what it touches),
#: then scalar reports too few to reach the ``batch:32`` fsync — bytes
#: that are acknowledged but covered by no sync, which the kill drops.
BARRIER_OPS = 32
UNSYNCED_REPORTS = 16
#: Write batches the timed phases leave for the drill (flush + barrier).
RESERVED_BATCHES = 2

LATE_MS = 5.0
LATE_SHARE = 0.01

VERBS = ("within", "snapshot_at", "nearest")


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _split(total: int, parts: int) -> List[int]:
    """``total`` calls cut into ``parts`` slices as evenly as it goes."""
    return [(k + 1) * total // parts - k * total // parts
            for k in range(parts)]


def _verb(op) -> str:
    if isinstance(op, Within):
        return "within"
    return "snapshot_at" if isinstance(op, SnapshotAt) else "nearest"


def _wchar() -> int:
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Phase:
    """What one phase measured: per-call seconds, one list per round."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.slices: List[Tuple[float, float]] = []
        self.rounds: List[List[float]] = []
        self.by_verb: Dict[str, List[float]] = {}
        self.late: List[float] = []        # seconds the generator ran late
        self.ops = 0                       # ops per timed call
        self.extra: Dict[str, float] = {}
        self._opened = 0.0

    def open(self) -> None:
        self.rounds.append([])
        self._opened = time.perf_counter()

    def close(self) -> None:
        self.slices.append((self._opened, time.perf_counter()))

    def add(self, seconds: float, verb: Optional[str] = None) -> None:
        self.rounds[-1].append(seconds)
        if verb is not None:
            self.by_verb.setdefault(verb, []).append(seconds)

    @property
    def calls(self) -> List[float]:
        return [x for samples in self.rounds for x in samples]

    def rate(self) -> float:
        """Operations per second of call time, all rounds together."""
        spent = sum(self.calls)
        return self.ops * len(self.calls) / spent if spent else 0.0

    def latency(self) -> float:
        """Median latency in seconds: per verb, averaged over the mix,
        where the phase has verbs (k-NN costs several times a range
        query, and a median over the 1:1:1 mix would jump from one
        verb's mode to the next)."""
        if not self.by_verb:
            return median(self.calls)
        return sum(median(self.by_verb.get(verb, []))
                   for verb in VERBS) / len(VERBS)

    def summary(self) -> Dict[str, object]:
        calls = self.calls
        out: Dict[str, object] = {
            "seconds": sum(end - start for start, end in self.slices),
            "samples": len(calls),
            "ops_per_call": self.ops,
        }
        if calls:
            out["p50_ms"] = median(calls) * 1e3
            out["mean_ms"] = sum(calls) / len(calls) * 1e3
        for verb, samples in self.by_verb.items():
            out[f"{verb}_samples"] = len(samples)
        if self.late:
            share = sum(1 for x in self.late if x * 1e3 > LATE_MS) / len(
                self.late)
            out["late"] = share > LATE_SHARE
            out["late_share"] = share
        out.update(self.extra)
        return out


class Run:
    """One workload, one seed, traced or not."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, scale: float, run_dir: str) -> None:
        self.spec = SPECS[workload]
        self.seed, self.seconds, self.scale = seed, seconds, scale
        self.traced = traced
        self.run_dir = run_dir
        self.schedule = Schedule(self.spec, seed, scale)
        self.model = oracle.Model(
            self.schedule.n + MAX_WRITE_BATCHES * MAX_WRITE_BATCH_OPS
        )
        self.tracer: Optional[spans.Tracer] = (
            spans.Tracer() if traced else None
        )
        self._undo: list = []
        self.service = None
        self.frontend: Optional[AsyncFrontend] = None
        self.phases: Dict[str, Phase] = {}
        self.untraced: Dict[str, Phase] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}
        self.acked_writes = 0
        self.answers_sha256 = ""
        self._read_batches = self.schedule.read_batches()
        self._arrivals = self.schedule.open_arrivals()
        self._scalars = self.schedule.scalar_calls()

    # -- plumbing ------------------------------------------------------------

    def _span(self, name: str):
        if self.tracer is not None and self._undo:
            return self.tracer.span(name)
        return nullcontext()

    def _trace(self, on: bool) -> None:
        """Put the shims in or take them out (traced runs only)."""
        if self.tracer is None or on == bool(self._undo):
            return
        if on:
            self._undo = spans.install(self.tracer)
        else:
            spans.uninstall(self._undo)

    def _fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failed += count
            self.checks[kind] = self.checks.get(kind, 0) + count

    @staticmethod
    def _begin(name: str, into: Dict[str, Phase]) -> Phase:
        phase = into.setdefault(name, Phase(name))
        phase.open()
        return phase

    def _check_reads(self, phase: Phase, kind: str, pairs) -> None:
        """Re-answer a slice's share of the phase's oracle sample."""
        checked, wrong = oracle.check_sample(
            self.model, pairs, -(-ORACLE_SAMPLE // ROUNDS))
        phase.extra["oracle_checked"] = (
            phase.extra.get("oracle_checked", 0) + checked)
        self._fail(kind, wrong)

    def _new_service(self, wal_dir: Optional[str]):
        if self.spec.durable:
            return FaultTolerantMotionService(
                Y_MAX, V_MIN, V_MAX, shards=SHARDS,
                replication_factor=REPLICATION, method="forest",
                router="hash", wal_dir=wal_dir, wal_fsync=WAL_FSYNC,
            )
        return ShardedMotionService(
            Y_MAX, V_MIN, V_MAX, shards=SHARDS, method="forest",
            router="hash", workers=self.spec.workers,
        )

    def _io_totals(self) -> Dict[str, int]:
        totals = {"reads": 0, "writes": 0, "buffer_hits": 0,
                  "pages_in_use": 0, "objects": 0}
        for shard in self.service.service_stats()["shard_state"]:
            for key in ("reads", "writes", "buffer_hits"):
                totals[key] += shard["io"][key]
            totals["pages_in_use"] += shard["pages_in_use"]
            totals["objects"] += shard["objects"]
        return totals

    def _counters(self) -> Dict[str, float]:
        counters = dict(self.service.metrics.snapshot()["counters"])
        cache = self.service.query_cache
        if cache is not None:
            for key, value in cache.stats().items():
                counters[f"cache_{key}"] = value
        return counters

    def _apply_batch(self, ops: List) -> float:
        """One acknowledged write batch: time it, then book it."""
        with self._span("write_batch"):
            start = time.perf_counter()
            outcomes = self.service.apply_batch(ops)
            took = time.perf_counter() - start
        self.attempted += len(ops)
        self._fail("write_outcome", self.model.apply_batch(ops, outcomes))
        self.acked_writes += sum(1 for o in outcomes if o is None)
        return took

    def _next_write_batch(self) -> Optional[List]:
        """The next batch, or ``None`` at the clock cap (only a much
        longer ``--seconds`` gets there)."""
        if self.schedule.write_batches_left <= RESERVED_BATCHES:
            return None
        return self.schedule.write_batch()

    def _scalar_read(self, op):
        service = self.service
        if isinstance(op, Within):
            return service.within(op.y1, op.y2, op.t1, op.t2)
        if isinstance(op, SnapshotAt):
            return service.snapshot_at(op.y1, op.y2, op.t)
        return service.nearest(op.y, op.t, op.k)

    def _report(self, op) -> Tuple[bool, float]:
        """One scalar report: (acknowledged, seconds)."""
        self.attempted += 1
        with self._span("write_scalar"):
            start = time.perf_counter()
            try:
                self.service.report(op.oid, op.y0, op.v, op.t0)
                ok = True
            except Exception:  # noqa: BLE001 - a failed op, counted
                ok = False
            took = time.perf_counter() - start
        if ok and self.model.expects_ok(op):
            self.model.apply(op)
            self.acked_writes += 1
        else:
            self._fail("write_outcome")
        return ok, took

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Construct, load, answer one query: ready to serve.

        The durable services register in 2,000-op chunks (the soak's
        bulk-register shape); the plain ones in one batch, which is
        what lets the forest bulk-build instead of inserting one by one.
        """
        population = self.schedule.population()
        probe = Within(0.0, 10.0, QUERY_EPOCH, QUERY_EPOCH + 1.0)
        gc.collect()
        self._trace(True)
        start = time.perf_counter()
        wal_dir = (os.path.join(self.run_dir, "wal")
                   if self.spec.durable else None)
        self.service = self._new_service(wal_dir)
        chunk = LOAD_CHUNK if self.spec.durable else len(population)
        paused = 0.0
        for lo in range(0, len(population), chunk):
            ops = population[lo: lo + chunk]
            outcomes = self.service.apply_batch(ops)
            pause = time.perf_counter()
            self._fail("load_outcome", self.model.apply_batch(ops, outcomes))
            paused += time.perf_counter() - pause
        first = self.service.query_batch([probe])[0]
        self.setup_s = time.perf_counter() - start - paused
        self.attempted += len(population) + 1
        if not self.model.matches(probe, first):
            self._fail("oracle_setup")
        gc.collect()
        gc.freeze()
        self.counters_at_ready = self._counters()
        self.io_at_ready = self._io_totals()

    def _account(self, phase: Phase, before: Dict[str, int],
                 wchar0: Optional[int] = None) -> None:
        """Add a slice's simulated page traffic (and, for writes, the
        bytes handed to the kernel) to the phase's running totals."""
        after = self._io_totals()
        extra = phase.extra
        for key in ("reads", "writes"):
            extra[f"page_{key}"] = (
                extra.get(f"page_{key}", 0) + after[key] - before[key])
        if wchar0 is not None:
            extra["wchar"] = extra.get("wchar", 0) + _wchar() - wchar0

    # -- read phases ---------------------------------------------------------

    async def read_batch(self, calls: int, into: Dict[str, Phase]) -> None:
        phase = self._begin("read_batch", into)
        phase.ops = READ_BATCH_OPS
        pairs: List = []
        for _ in range(calls):
            ops = next(self._read_batches)
            with self._span("read_batch"):
                start = time.perf_counter()
                answers = await self.frontend.submit_many(ops)
                took = time.perf_counter() - start
            self.attempted += len(ops)
            shed = sum(isinstance(a, Overloaded) for a in answers)
            self._fail("shed", shed)
            if not shed and len(pairs) < KEPT_BATCHES * READ_BATCH_OPS:
                pairs.extend(zip(ops, answers))
            phase.add(took)
        phase.close()
        if into is self.phases and not self.answers_sha256:
            # The digest of the first answers, and of the oracle's
            # answers to the same reads: equal in every run means equal
            # between scan_100k and pool_100k, which get the same reads.
            self.answers_sha256 = oracle.answers_digest(
                [answer for _, answer in pairs])
            wanted = oracle.answers_digest(
                [self.model.answer(op) for op, _ in pairs])
            if wanted != self.answers_sha256:
                self._fail("answers_sha256")
        self._check_reads(phase, "oracle_read_batch", pairs)

    async def _open_loop(self, phase: Phase, budget: float,
                         sink: List) -> Tuple[int, int]:
        """Send arrivals on schedule; latency runs from the due time.
        ``sink`` receives the first answers, for the oracle.  Returns
        ``(shed or failed, sent)``."""
        frontend = self.frontend
        t0 = time.perf_counter()
        first_due = None
        tasks = []

        async def one(op, due: float) -> bool:
            try:
                answer = await frontend.submit(op)
            except Exception:  # noqa: BLE001 - a failed request, counted
                answer = None
            done = time.perf_counter()
            bad = answer is None or isinstance(answer, Overloaded)
            phase.add(float("inf") if bad else done - due, _verb(op))
            if not bad and len(sink) < KEPT_OPEN:
                sink.append((op, answer, due, done))
            return bad

        for offset, op in self._arrivals:
            if first_due is None:
                first_due = offset
            due = t0 + (offset - first_due)
            if due - t0 > budget:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late.append(max(0.0, time.perf_counter() - due))
            tasks.append(asyncio.create_task(one(op, due)))
        return sum(await asyncio.gather(*tasks)), len(tasks)

    async def read_open(self, budget: float, into: Dict[str, Phase]) -> None:
        phase = self._begin("read_open", into)
        phase.ops = 1
        sink: List = []
        bad, sent = await self._open_loop(phase, budget, sink)
        phase.close()
        self.attempted += sent
        self._fail("shed", bad)
        self._check_reads(phase, "oracle_read_open",
                          ((op, a) for op, a, _, _ in sink))

    def read_scalar(self, calls: int, into: Dict[str, Phase]) -> None:
        """Scalar verbs on the paged index, cold buffers per query (the
        paper's protocol), in calls of one query per verb, so every
        sample holds the full 1:1:1 mix."""
        phase = self._begin("read_scalar", into)
        phase.ops = len(VERBS)
        service = self.service
        pairs = []
        before = self._io_totals()
        for _ in range(calls):
            spent = 0.0
            for op in next(self._scalars):
                service.clear_buffers()
                with self._span("read_scalar"):
                    start = time.perf_counter()
                    answer = self._scalar_read(op)
                    took = time.perf_counter() - start
                spent += took
                pairs.append((op, answer))
            self.attempted += len(VERBS)
            phase.add(spent)
        phase.close()
        self._account(phase, before)
        self._check_reads(phase, "oracle_read_scalar", pairs)

    # -- write phases --------------------------------------------------------

    def write_batch(self, calls: int, into: Dict[str, Phase]) -> None:
        phase = self._begin("write_batch", into)
        self.service.clear_buffers()
        before, wchar0 = self._io_totals(), _wchar()
        for _ in range(calls):
            ops = self._next_write_batch()
            if ops is None:
                break
            phase.ops = len(ops)
            phase.add(self._apply_batch(ops))
        phase.close()
        self._account(phase, before, wchar0)

    def write_scalar(self, calls: int, into: Dict[str, Phase]) -> None:
        phase = self._begin("write_scalar", into)
        phase.ops = 1
        for _ in range(calls):
            op = self.schedule.scalar_report()
            if op is None:
                break
            phase.add(self._report(op)[1])
        phase.close()

    async def mixed(self, calls: int, into: Dict[str, Phase]) -> None:
        """Open-loop Zipf reads beside one writer thread that applies
        ``calls`` batches, one every :data:`PACED_PERIOD_S`.

        A read is checked against the model as of the last write batch
        acknowledged before it was due, and only when no batch was in
        flight between its due time and its answer — a read that
        overlaps a write may legally see either state.
        """
        reads = self._begin("mixed", into)
        writes = self._begin("write_batch", into)
        reads.ops = 1
        stop = threading.Event()
        windows: List[Tuple[float, float]] = []
        versions = [self.model.copy()]
        self.service.clear_buffers()
        before, wchar0 = self._io_totals(), _wchar()

        def writer() -> None:
            t0 = time.perf_counter()
            # Once the readers are done, the writer finishes its
            # batches without pacing.
            for done in range(calls):
                delay = t0 + done * PACED_PERIOD_S - time.perf_counter()
                if delay > 0:
                    stop.wait(delay)
                ops = self._next_write_batch()
                if ops is None:
                    break
                writes.ops = len(ops)
                begun = time.perf_counter()
                writes.add(self._apply_batch(ops))
                windows.append((begun, time.perf_counter()))
                versions.append(self.model.copy())

        sink: List = []
        thread = threading.Thread(target=writer, name="perf-writer")
        thread.start()
        bad = sent = 0
        try:
            bad, sent = await self._open_loop(
                reads, calls * PACED_PERIOD_S, sink)
        finally:
            stop.set()
            await asyncio.to_thread(thread.join)
        reads.close()
        writes.close()
        self._account(writes, before, wchar0)
        self.attempted += sent  # after the join: the writer counts too
        self._fail("shed", bad)

        def settled():
            for op, answer, due, done in sink:
                if any(b < done and e > due for b, e in windows):
                    continue
                version = sum(1 for _, e in windows if e <= due)
                yield versions[version], op, answer

        checked = wrong = 0
        for model, op, answer in settled():
            if checked >= -(-ORACLE_SAMPLE // ROUNDS):
                break
            checked += 1
            wrong += not model.matches(op, answer)
        reads.extra["oracle_checked"] = (
            reads.extra.get("oracle_checked", 0) + checked)
        self._fail("oracle_mixed", wrong)

    # -- restart -------------------------------------------------------------

    def _logs(self) -> List[Dict[str, object]]:
        """Every shard's open log segment: path, size, synced size."""
        return [status["wal"]["backend"]["log"]
                for status in self.service.shard_status()]

    def restart(self) -> None:
        """Kill-and-lose-the-page-cache restart of the durable service.

        Three steps leave the logs as a kill would find them.  A full
        batch makes every shard checkpoint, so the log tails start
        empty.  The *barrier* batch (:data:`BARRIER_OPS`) leaves a
        non-empty tail on them, below the checkpoint threshold — and
        synced, because the fault-tolerant ``apply_batch`` syncs every
        shard it touches before it returns: every write acknowledged so
        far is covered by a returned sync and must survive.  Then
        :data:`UNSYNCED_REPORTS` scalar reports: acknowledged, in the
        page cache, covered by no sync yet.

        The directory is copied without ``close()`` and each log cut at
        its ``synced_bytes`` — the kill drops the reports' bytes — and
        a new service restores from the copy: checkpoint load *and* log
        replay.  Every object must come back with its motion as of the
        barrier or a later acknowledged one.
        """
        self._apply_batch(self.schedule.write_batch())
        self._apply_batch(self.schedule.write_batch(BARRIER_OPS))
        unsynced = [log["path"] for log in self._logs()
                    if log["synced_bytes"] != log["size_bytes"]]
        if unsynced:  # the drill's premise, not the program's promise
            raise RuntimeError(
                f"barrier batch left logs unsynced: {unsynced}")
        synced = self.model.copy()
        later: Dict[int, List[Tuple[float, float, float]]] = {}
        for _ in range(UNSYNCED_REPORTS):
            op = self.schedule.scalar_report()
            if op is None:
                break
            if self._report(op)[0]:
                later.setdefault(op.oid, []).append((op.y0, op.v, op.t0))
        logs = self._logs()
        source = os.path.join(self.run_dir, "wal")
        copy = os.path.join(self.run_dir, "wal-after-kill")
        shutil.copytree(source, copy)
        dropped = 0
        for log in logs:
            path = os.path.join(copy, os.path.relpath(log["path"], source))
            dropped += os.path.getsize(path) - log["synced_bytes"]
            os.truncate(path, log["synced_bytes"])
        probe = next(self._scalars)[0]
        phase = self._begin("restart", self.phases)
        restored = self._new_service(copy)
        try:
            summary = restored.restore_from_disk()
            answer = restored.query_batch([probe])[0]
            phase.close()
            self.attempted += 1
            snapshot = restored.motion_snapshot()
        finally:
            restored.close()
        lost, kept = oracle.catalog_differences(synced, later, snapshot)
        self._fail("lost_synced_writes", lost)
        # The restored state: the barrier's, plus the unsynced reports
        # that survived after all (none, unless a log synced by itself).
        for oid, motion in kept.items():
            synced.y0[oid], synced.v[oid], synced.t0[oid] = motion
        if not synced.matches(probe, answer):
            self._fail("oracle_restart")
        start, end = phase.slices[-1]
        phase.extra.update(
            restart_s=end - start,
            lost_synced_writes=lost,
            restored_objects=summary["objects"],
            recovered_records=sum(
                shard["replayed"] for shard in summary["shards"]),
            unsynced_reports=sum(len(v) for v in later.values()),
            unsynced_reports_kept=len(kept),
            dropped_unsynced_bytes=dropped,
        )

    # -- the run -------------------------------------------------------------

    async def _slice(self, name: str, amount: float,
                     into: Dict[str, Phase]) -> None:
        if name == "read_open":
            await self.read_open(amount, into)
        elif name == "mixed":
            await self.mixed(int(amount), into)
        elif name == "read_batch":
            await self.read_batch(int(amount), into)
        else:
            getattr(self, name)(int(amount), into)

    def _amounts(self) -> Dict[str, List[float]]:
        """Per phase: what each round does (calls, or seconds of
        arrivals for ``read_open``), from :data:`PLAN` and ``--seconds``."""
        scale = self.seconds / RUN_SECONDS
        out: Dict[str, List[float]] = {}
        for name, total in PLAN[self.spec.name].items():
            if name == "read_open":
                out[name] = [total * scale / ROUNDS] * ROUNDS
            else:
                calls = max(LEAST_CALLS[name], round(total * scale))
                out[name] = _split(calls, ROUNDS)
        return out

    async def drive(self) -> None:
        amounts = self._amounts()
        self.frontend = AsyncFrontend(self.service)
        await self.frontend.start()
        try:
            self._trace(False)
            for name in amounts:  # warm-up, discarded
                await self._slice(name, WARM_CALLS.get(name, WARM_OPEN_S), {})
            # A fresh generator starts a fresh Latin hypercube: the
            # timed scalar queries are whole blocks.
            self._scalars = self.schedule.scalar_calls()
            for index in range(ROUNDS):
                traced = self.traced and index % 2 == 0
                self._trace(traced)
                into = (self.untraced if self.traced and not traced
                        else self.phases)
                for name, per_round in amounts.items():
                    if per_round[index]:
                        await self._slice(name, per_round[index], into)
            self._trace(True)
        finally:
            await self.frontend.stop()

    def execute(self) -> None:
        """Set up, drive every phase, restart if durable, tear down."""
        os.makedirs(self.run_dir)
        try:
            self.setup()
            asyncio.run(self.drive())
            if self.spec.durable and not self.spec.hot:
                self.restart()
            self.finish()
        finally:
            spans.uninstall(self._undo)
            if self.service is not None:
                self.service.close()
            shutil.rmtree(self.run_dir, ignore_errors=True)
        self.leaked_segments = list(live_segment_names())
        self._fail("leaked_shm_segments", len(self.leaked_segments))
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.spec.workers:
            # RUSAGE_CHILDREN holds the largest reaped child, so the
            # pool's share is that times its width.
            usage += self.spec.workers * resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = usage / 1024.0

    def finish(self) -> None:
        """End-of-run readings that need the live service."""
        registry = self.service.metrics
        start = time.perf_counter()
        snapshot = registry.snapshot()
        self.metrics_snapshot_ms = (time.perf_counter() - start) * 1e3
        held = 0
        for name in snapshot["operations"]:
            op = registry.operation(name)
            held += op.latency_ms.count + op.io_per_op.count
        for shard, ops in snapshot["shards"].items():
            for name in ops:
                op = registry.shard_operation(shard, name)
                held += op.latency_ms.count + op.io_per_op.count
        self.metrics_samples_held = held
        self.counters_at_end = self._counters()
        self.io_at_end = self._io_totals()
        self.respawns = (
            self.service.pool.respawns if self.service.pool is not None else 0
        )
        self.shm_snapshot_ms = self.shm_snapshot_bytes = 0.0
        if self.traced and self.service.pool is not None:
            took, size = [], 0
            for _ in range(5):
                start = time.perf_counter()
                size = self._snapshot_one_segment()
                took.append(time.perf_counter() - start)
            self.shm_snapshot_ms = median(took) * 1e3
            self.shm_snapshot_bytes = float(size)

    @staticmethod
    def _snapshot_one_segment() -> int:
        """Attach and snapshot one live shard segment, as a worker does;
        returns the bytes copied.  Retired segments (left odd by growth)
        never stabilise and are skipped after a short wait."""
        for name in reversed(live_segment_names()):
            segment = attach_segment(name)
            try:
                rows = read_snapshot(segment, timeout_s=0.01)
            except TornSegmentError:
                continue
            finally:
                segment.close()
            return sum(column.nbytes for column in rows[:4])
        return 0

    # -- results -------------------------------------------------------------

    def end_to_end(
        self, phases: Optional[Dict[str, Phase]] = None
    ) -> Dict[str, Optional[float]]:
        """The issue's 14 end-to-end metrics from ``phases`` (default:
        the run's own); ``None`` where the workload does not have the
        metric (``catalog.Metric.on``)."""
        p = phases or self.phases
        scalar, writes = p["read_scalar"], p["write_batch"]
        written = writes.ops * len(writes.calls)
        restart = p["restart"].extra if "restart" in p else {}
        figures = {
            "setup_s": lambda: self.setup_s,
            "read_qps": lambda: p["read_batch"].rate(),
            "read_p50_ms": lambda: p[
                "mixed" if self.spec.hot else "read_open"].latency() * 1e3,
            "scalar_qps": scalar.rate,
            "write_ups": writes.rate,
            "report_p50_ms": lambda: p["write_scalar"].latency() * 1e3,
            "apply_p50_ms": lambda: writes.latency() * 1e3,
            "restart_s": lambda: restart["restart_s"],
            "lost_synced_writes": lambda: restart["lost_synced_writes"],
            "write_amp": lambda: writes.extra["wchar"] / (32.0 * written),
            "query_pages": lambda: scalar.extra["page_reads"] / (
                scalar.ops * len(scalar.calls)),
            "update_pages": lambda: (
                writes.extra["page_reads"] + writes.extra["page_writes"]
            ) / written,
            "peak_rss_mb": lambda: self.peak_rss_mb,
            "failed_share": lambda: self.failed / max(1, self.attempted),
        }
        return {
            m.name: figures[m.name]() if self.spec.name in m.on else None
            for m in END_TO_END
        }
