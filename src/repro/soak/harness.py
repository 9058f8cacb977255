"""The concurrent soak harness: every subsystem at once, under oracles.

One soak run replays a :mod:`repro.workloads.scenarios` event stream
against a :class:`FaultTolerantMotionService` while simultaneously:

* applying interleaved ``register`` / ``report`` / ``deregister``
  writes from ``threads`` worker threads;
* hammering the vectorized ``query_batch`` path (PR 5) from a
  concurrent reader;
* maintaining live subscriptions (PR 4) whose incremental results are
  held to the three-way identity (incremental == naive reevaluation ==
  delta replay) at every check round;
* killing shards mid-write-storm at scheduled operation indexes and
  recovering them through WAL replay + catalog reconciliation (PR 3);
* optionally cycling the whole service through a graceful shutdown and
  ``restore_from_disk()`` cold restart over the durable backend (PR 6),
  asserting the restored catalog converges to the acknowledged one;
* optionally firing the live rebalance controller at scheduled
  quiescent ticks (``rebalances > 0``, band routers only): the skewed
  population is re-cut and migrated mid-soak, and the very next
  differential round must still match every oracle.

Determinism: the *schedule* (every generated event) is a pure function
of the seed, and its SHA-256 digest is reported.  With ``threads=1``
the *trace* — applied-op outcomes plus every subscription delta — is
deterministic too and gets its own digest; the ``soak-smoke`` gate
asserts two runs produce identical digests and zero divergences.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
)
from repro.service.continuous import SubscriptionManager
from repro.service.metrics import MetricsRegistry
from repro.service.replication import FaultTolerantMotionService
from repro.soak.oracle import CheckStats, OracleChecker
from repro.workloads.scenarios import (
    GridScenario,
    ScenarioStream,
    StreamEvent,
    build_scenario,
)

__all__ = ["SoakConfig", "SoakReport", "run_soak", "schedule_digest"]

_SUBSCRIPTION_SEED_MIX = 0x85EBCA6B


def schedule_digest(events: Iterable[StreamEvent],
                    running: Optional["hashlib._Hash"] = None):
    """SHA-256 over the canonical tuple form of an event stream."""
    digest = running or hashlib.sha256()
    for event in events:
        digest.update(repr(event.as_tuple()).encode())
    return digest


@dataclass
class SoakConfig:
    """One soak run, fully specified (and fully reproducible).

    ``threads=1`` is the deterministic mode: writes, queries, clock
    advances and checks run in one fixed order.  ``threads>1`` adds a
    concurrent reader thread and partitions each tick's writes
    round-robin across workers — the schedule stays deterministic, the
    interleaving intentionally does not.
    """

    scenario: str = "uniform"
    n: int = 1000
    ticks: int = 10
    updates_per_tick: Optional[int] = None
    arrivals_per_tick: int = 0
    departures_per_tick: int = 0
    shards: int = 4
    replication: int = 2
    method: str = "forest"
    router: str = "hash"
    threads: int = 1
    batch_queries_per_tick: int = 32
    batch_size: int = 16
    subscriptions: int = 8
    proximity_subs: int = 0
    horizon: float = 20.0
    crashes: int = 0
    restarts: int = 0
    rebalances: int = 0
    check_every: int = 2
    queries_per_check: int = 6
    knn_per_check: int = 2
    wal_dir: Optional[str] = None
    fsync: str = "batch:8"
    #: Writes per ``apply_batch`` call.  1 (default) keeps the scalar
    #: per-op write path; >1 routes each worker's slice through the
    #: batched write path in chunks of this size — the statuses trace
    #: is computed from the per-op outcome list, so at size 1 the two
    #: paths must produce byte-identical trace digests.
    write_batch_size: int = 1
    #: Worker-process pool width for the service's parallel query
    #: tier (0 keeps the in-process path; answers are identical
    #: either way).
    workers: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"need at least 1 thread, got {self.threads}")
        if self.ticks < 1:
            raise ValueError(f"need at least 1 tick, got {self.ticks}")
        if not 1 <= self.check_every <= self.ticks:
            raise ValueError(
                f"check_every must be in [1, {self.ticks}] or no "
                f"differential round runs, got {self.check_every}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.write_batch_size < 1:
            raise ValueError(
                f"write_batch_size must be >= 1, got {self.write_batch_size}"
            )
        if not 1 <= self.replication <= self.shards:
            raise ValueError(
                f"replication must be in [1, {self.shards}], "
                f"got {self.replication}"
            )
        if self.restarts > 0 and not self.wal_dir:
            raise ValueError("--restarts needs --wal-dir (cold restart "
                             "rebuilds the service from durable WALs)")
        if self.crashes > 0 and self.shards < 2:
            raise ValueError("crash injection needs at least 2 shards")
        if self.rebalances > 0 and self.router not in ("velocity", "band"):
            raise ValueError(
                "--rebalances needs a band router "
                "(--router velocity); hash routing has no bands to "
                "re-cut"
            )


@dataclass
class SoakReport:
    """Everything ``BENCH_soak.json`` records about one run."""

    config: Dict[str, object]
    ops: Dict[str, int]
    elapsed_s: float
    write_ops_per_s: float
    latency_ms: Dict[str, Dict[str, float]]
    checks: Dict[str, int]
    divergences: int
    divergence_labels: List[str]
    recovery: Dict[str, int]
    subscription_stats: Dict[str, object]
    schedule_sha256: str
    trace_sha256: Optional[str]
    rebalance: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": "soak",
            "scenario": self.config.get("scenario"),
            "config": self.config,
            "ops": self.ops,
            "throughput": {
                "elapsed_s": round(self.elapsed_s, 4),
                "write_ops_per_s": round(self.write_ops_per_s, 1),
            },
            "latency_ms": self.latency_ms,
            "checks": self.checks,
            "divergences": self.divergences,
            "divergence_labels": self.divergence_labels[:20],
            "recovery": self.recovery,
            "rebalance": self.rebalance,
            "subscriptions": self.subscription_stats,
            "determinism": {
                "schedule_sha256": self.schedule_sha256,
                "trace_sha256": self.trace_sha256,
            },
        }

    def write_json(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @property
    def ok(self) -> bool:
        return self.divergences == 0

    def render(self) -> str:
        lines = [
            f"soak: scenario={self.config.get('scenario')} "
            f"n={self.config.get('n')} ticks={self.config.get('ticks')} "
            f"threads={self.config.get('threads')}",
            f"  writes: {self.ops}",
            f"  throughput: {self.write_ops_per_s:.0f} write ops/s "
            f"over {self.elapsed_s:.2f}s",
        ]
        for op, pcts in sorted(self.latency_ms.items()):
            lines.append(
                f"  latency {op}: p50={pcts.get('p50', 0.0):.3f}ms "
                f"p99={pcts.get('p99', 0.0):.3f}ms"
            )
        lines.append(f"  checks: {self.checks}")
        lines.append(f"  recovery: {self.recovery}")
        if self.rebalance:
            lines.append(f"  rebalance: {self.rebalance}")
        lines.append(
            f"  divergences: {self.divergences}"
            + (f" {self.divergence_labels[:5]}" if self.divergences else "")
        )
        return "\n".join(lines)


class _CrashPlan:
    """Scheduled shard kills at exact operation indexes within a tick."""

    def __init__(self, config: SoakConfig) -> None:
        self.kills: Dict[int, Tuple[int, int]] = {}  # tick -> (shard, at_op)
        self.recover_at: Dict[int, List[int]] = {}   # tick -> [shards]
        if config.crashes <= 0:
            return
        expected = max(
            1,
            config.updates_per_tick
            if config.updates_per_tick is not None
            else max(1, config.n // 50),
        )
        span = max(2, config.ticks - 1)
        for i in range(config.crashes):
            tick = 1 + round(span * (i + 1) / (config.crashes + 1))
            tick = min(max(tick, 1), config.ticks)
            while tick in self.kills:
                tick = tick % config.ticks + 1
            shard = 1 + i % (config.shards - 1)
            self.kills[tick] = (shard, max(1, expected // 2))
            recover = min(tick + 1, config.ticks)
            self.recover_at.setdefault(recover, []).append(shard)

    def restart_ticks(self, config: SoakConfig) -> List[int]:
        if config.restarts <= 0:
            return []
        ticks = []
        for i in range(config.restarts):
            tick = round(config.ticks * (i + 1) / (config.restarts + 1))
            ticks.append(min(max(tick, 1), config.ticks))
        return sorted(set(ticks))

    def rebalance_ticks(self, config: SoakConfig) -> List[int]:
        """Evenly spaced live-repartitioning ticks (quiescent points:
        the tick's write barrier and subscription drain are behind
        us, the differential round is ahead — so every check sees the
        post-migration state)."""
        if config.rebalances <= 0:
            return []
        ticks = []
        for i in range(config.rebalances):
            tick = round(config.ticks * (i + 1) / (config.rebalances + 1))
            ticks.append(min(max(tick, 1), config.ticks))
        return sorted(set(ticks))


class _CrashTrigger:
    """Fires ``kill_shard`` exactly once when the op counter crosses the
    scheduled index — from whichever worker thread gets there first,
    which with ``threads>1`` lands mid-write-storm (and therefore
    mid-subscription-delivery: listeners run inside the write path)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0
        self._armed: Optional[Tuple[int, int]] = None  # (shard, at_op)
        self.fired: List[int] = []

    def arm(self, shard: int, at_op: int) -> None:
        with self._lock:
            self._count = 0
            self._armed = (shard, at_op)

    def step(self, service: FaultTolerantMotionService) -> None:
        kill = None
        with self._lock:
            if self._armed is None:
                return
            self._count += 1
            if self._count >= self._armed[1]:
                kill = self._armed[0]
                self._armed = None
        if kill is not None:
            service.kill_shard(kill, reason="soak scheduled crash")
            self.fired.append(kill)


def _build_service(config: SoakConfig, scenario: ScenarioStream,
                   metrics: MetricsRegistry) -> FaultTolerantMotionService:
    return FaultTolerantMotionService(
        shards=config.shards,
        replication_factor=config.replication,
        method=config.method,
        router=config.router,
        metrics=metrics,
        wal_dir=config.wal_dir,
        wal_fsync=config.fsync,
        workers=config.workers,
        **scenario.model_params(),
    )


def _subscription_specs(
    config: SoakConfig, scenario: ScenarioStream
) -> List[Tuple]:
    """Deterministic standing-query specs, independent of the streams."""
    import random

    rng = random.Random(config.seed ^ _SUBSCRIPTION_SEED_MIX)
    specs: List[Tuple] = []
    for i in range(config.subscriptions):
        length = rng.uniform(scenario.y_max * 0.02, scenario.y_max * 0.15)
        y1 = rng.uniform(0.0, scenario.y_max - length)
        if i % 2 == 0:
            specs.append(("snapshot", y1, y1 + length))
        else:
            specs.append(("within", y1, y1 + length, config.horizon))
    for _ in range(config.proximity_subs):
        specs.append(("proximity", rng.uniform(
            scenario.y_max * 0.005, scenario.y_max * 0.02
        )))
    return specs


def _subscribe_all(
    manager: SubscriptionManager, specs: Sequence[Tuple]
) -> Dict[int, Tuple[frozenset, List]]:
    """Open every spec; returns sid -> (initial result, delta log)."""
    logs: Dict[int, Tuple[frozenset, List]] = {}
    for spec in specs:
        if spec[0] == "snapshot":
            sid = manager.subscribe_snapshot(spec[1], spec[2])
        elif spec[0] == "within":
            sid = manager.subscribe_within(spec[1], spec[2], spec[3])
        else:
            sid = manager.subscribe_proximity(spec[1])
        logs[sid] = (manager.result(sid), [])
    return logs


def _apply_events(
    service: FaultTolerantMotionService,
    events: Sequence[StreamEvent],
    trigger: _CrashTrigger,
    batch_size: int = 1,
) -> Tuple[Dict[str, int], List[str]]:
    """Apply one slice of writes in order; returns counters + statuses.

    ``batch_size > 1`` routes the slice through ``apply_batch`` in
    chunks, deriving each event's status from its outcome slot; the
    crash trigger still steps once per event (at chunk granularity),
    so scheduled kills keep firing at the same operation counts.
    """
    counts = {
        "registers": 0, "reports": 0, "deregisters": 0,
        "rejected_writes": 0, "workload_errors": 0,
    }
    statuses: List[str] = []
    if batch_size > 1:
        from repro.vector.ops import DeregisterOp, RegisterOp, ReportOp

        for start in range(0, len(events), batch_size):
            chunk = list(events[start:start + batch_size])
            ops = []
            for event in chunk:
                if event.kind == "register":
                    ops.append(
                        RegisterOp(event.oid, event.y0, event.v, event.t0)
                    )
                elif event.kind == "report":
                    ops.append(
                        ReportOp(event.oid, event.y0, event.v, event.t0)
                    )
                else:
                    ops.append(DeregisterOp(event.oid))
            outcomes = service.apply_batch(ops)
            for event, error in zip(chunk, outcomes):
                if error is None:
                    key = {
                        "register": "registers", "report": "reports",
                    }.get(event.kind, "deregisters")
                    counts[key] += 1
                    statuses.append("ok")
                elif isinstance(error, ShardUnavailableError):
                    counts["rejected_writes"] += 1
                    statuses.append("rejected")
                else:
                    counts["workload_errors"] += 1
                    statuses.append("error")
                trigger.step(service)
        return counts, statuses
    for event in events:
        try:
            if event.kind == "register":
                service.register(event.oid, event.y0, event.v, event.t0)
                counts["registers"] += 1
                statuses.append("ok")
            elif event.kind == "report":
                service.report(event.oid, event.y0, event.v, event.t0)
                counts["reports"] += 1
                statuses.append("ok")
            else:
                service.deregister(event.oid)
                counts["deregisters"] += 1
                statuses.append("ok")
        except ShardUnavailableError:
            counts["rejected_writes"] += 1
            statuses.append("rejected")
        except (ObjectNotFoundError, InvalidMotionError):
            # Cascade from an earlier rejected write (e.g. a report for
            # an object whose register never committed): workload-level
            # noise, not an index bug — the oracle only sees the catalog.
            counts["workload_errors"] += 1
            statuses.append("error")
        trigger.step(service)
    return counts, statuses


def _run_batch_queries(
    service: FaultTolerantMotionService,
    queries,
    batch_size: int,
) -> Tuple[int, int]:
    """Issue pre-generated reads through ``query_batch`` in chunks.

    These are load, not checks (they race with writers by design);
    the differential rounds issue their own quiescent batches.
    """
    from repro.service.replication import PartialResult
    from repro.vector.ops import Within

    issued = partial = 0
    ops = [Within(q.y1, q.y2, q.t1, q.t2) for q in queries]
    for start in range(0, len(ops), max(1, batch_size)):
        chunk = ops[start:start + max(1, batch_size)]
        for result in service.query_batch(chunk):
            issued += 1
            if isinstance(result, PartialResult):
                partial += 1
    return issued, partial


def _merge(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _latency_percentiles(metrics: MetricsRegistry) -> Dict[str, Dict[str, float]]:
    snapshot = metrics.snapshot()
    out: Dict[str, Dict[str, float]] = {}
    for op in ("report", "register", "within", "query_batch"):
        stats = snapshot.get("operations", {}).get(op)
        if stats:
            out[op] = {
                "p50": round(float(stats.get("p50_ms", 0.0)), 4),
                "p99": round(float(stats.get("p99_ms", 0.0)), 4),
            }
    return out


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one full soak; returns the report (never raises on divergence
    — ``report.ok`` / ``report.divergences`` carry the verdict)."""
    scenario = build_scenario(
        config.scenario,
        n=config.n,
        seed=config.seed,
        updates_per_tick=config.updates_per_tick,
        arrivals_per_tick=config.arrivals_per_tick,
        departures_per_tick=config.departures_per_tick,
        shards=config.shards,
    )
    metrics = MetricsRegistry()
    service = _build_service(config, scenario, metrics)
    plan = _CrashPlan(config)
    restart_ticks = set(plan.restart_ticks(config))
    trigger = _CrashTrigger()
    checker = OracleChecker(CheckStats())
    sched_hash = hashlib.sha256()
    trace_hash = hashlib.sha256() if config.threads == 1 else None

    ops_total: Dict[str, int] = {}
    recovery = {
        "crashes": 0, "recoveries": 0, "replayed": 0,
        "reconciled": 0, "restarts": 0, "restored_objects": 0,
    }
    rebalance_ticks = set(plan.rebalance_ticks(config))
    rebalance_stats: Dict[str, object] = {}
    deltas_drained = 0

    pool = (
        ThreadPoolExecutor(max_workers=config.threads + 1)
        if config.threads > 1 else None
    )
    started = time.perf_counter()
    write_ops = 0
    try:
        # -- t = 0: initial population + subscriptions ---------------------
        initial = scenario.initial_events()
        schedule_digest(initial, sched_hash)
        if pool is None:
            counts, statuses = _apply_events(
                service, initial, trigger, config.write_batch_size
            )
            _merge(ops_total, counts)
            if trace_hash is not None:
                trace_hash.update(repr(statuses).encode())
        else:
            slices = [initial[i::config.threads] for i in range(config.threads)]
            futures = [
                pool.submit(
                    _apply_events, service, part, trigger,
                    config.write_batch_size,
                )
                for part in slices if part
            ]
            for future in futures:
                counts, _ = future.result()
                _merge(ops_total, counts)
        write_ops += len(initial)

        manager = SubscriptionManager(service, metrics=metrics)
        specs = _subscription_specs(config, scenario)
        replay_logs = _subscribe_all(manager, specs)

        # -- the ticks -----------------------------------------------------
        for tick in range(1, config.ticks + 1):
            now = float(tick)
            events = scenario.tick_events(now)
            schedule_digest(events, sched_hash)
            queries = [
                scenario.random_query(now)
                for _ in range(config.batch_queries_per_tick)
            ]
            if tick in plan.kills:
                shard, at_op = plan.kills[tick]
                trigger.arm(shard, min(at_op, max(1, len(events))))
                recovery["crashes"] += 1
            if pool is None:
                counts, statuses = _apply_events(
                    service, events, trigger, config.write_batch_size
                )
                _merge(ops_total, counts)
                if trace_hash is not None:
                    trace_hash.update(repr(statuses).encode())
                issued, partial = _run_batch_queries(
                    service, queries, config.batch_size
                )
            else:
                slices = [
                    events[i::config.threads] for i in range(config.threads)
                ]
                reader = pool.submit(
                    _run_batch_queries, service, queries, config.batch_size,
                )
                futures = [
                    pool.submit(
                        _apply_events, service, part, trigger,
                        config.write_batch_size,
                    )
                    for part in slices if part
                ]
                for future in futures:
                    counts, _ = future.result()
                    _merge(ops_total, counts)
                issued, partial = reader.result()
            write_ops += len(events)
            ops_total["batch_queries"] = (
                ops_total.get("batch_queries", 0) + issued
            )
            ops_total["batch_partial"] = (
                ops_total.get("batch_partial", 0) + partial
            )

            # Barrier reached: advance the subscription clock and drain.
            manager.advance(now)
            for sid, (_, log) in replay_logs.items():
                drained = manager.drain_deltas(sid)
                log.extend(drained)
                deltas_drained += len(drained)
                if trace_hash is not None and drained:
                    trace_hash.update(
                        repr([
                            (d.subscription_id, d.kind, d.key, d.time)
                            for d in drained
                        ]).encode()
                    )

            # Scheduled recoveries (WAL replay + reconciliation).
            for shard in plan.recover_at.get(tick, []):
                if shard in service.down_shards():
                    info = service.recover_shard(shard)
                    recovery["recoveries"] += 1
                    recovery["replayed"] += int(info.get("replayed", 0))
                    recovery["reconciled"] += int(info.get("reconciled", 0))

            # Scheduled cold restart over the durable backend.
            if tick in restart_ticks:
                for shard in service.down_shards():
                    info = service.recover_shard(shard)
                    recovery["recoveries"] += 1
                    recovery["replayed"] += int(info.get("replayed", 0))
                    recovery["reconciled"] += int(info.get("reconciled", 0))
                before = service.motion_snapshot()
                manager.close()
                service.close()
                service = _build_service(config, scenario, metrics)
                restored = service.restore_from_disk()
                recovery["restarts"] += 1
                recovery["restored_objects"] += int(
                    restored.get("objects", 0)
                )
                checker.check_restored_catalog(
                    before, service.motion_snapshot()
                )
                manager = SubscriptionManager(service, metrics=metrics)
                manager.advance(now)
                replay_logs = _subscribe_all(manager, specs)
                if trace_hash is not None:
                    trace_hash.update(
                        f"restart@{tick}:{len(before)}".encode()
                    )

            # Scheduled live repartitioning (quiescent, pre-check —
            # the differential round below validates the migrated
            # state against the oracles).
            if tick in rebalance_ticks:
                from repro.service.rebalance import (
                    RebalanceConfig,
                    RebalanceController,
                )

                controller = RebalanceController(
                    service, RebalanceConfig(skew_threshold=1.1)
                )
                result = controller.rebalance_once(force=True)
                rebalance_stats.setdefault(
                    "skew_initial", round(result.skew_before, 4)
                )
                rebalance_stats["skew_final"] = round(
                    result.skew_after, 4
                )
                rebalance_stats["runs"] = (
                    rebalance_stats.get("runs", 0) + 1
                )
                for key, value in (
                    ("planned", result.planned_moves),
                    ("migrated", result.migrated),
                    ("aborted", result.aborted),
                    ("skipped", result.skipped),
                ):
                    rebalance_stats[key] = (
                        rebalance_stats.get(key, 0) + value
                    )
                if trace_hash is not None:
                    trace_hash.update(
                        f"rebalance@{tick}:{result.migrated}:"
                        f"{result.aborted}".encode()
                    )

            # Differential round (quiescent: the barrier is behind us).
            if config.check_every > 0 and tick % config.check_every == 0:
                motions = service.motion_snapshot()
                check_queries = [
                    scenario.random_query(now)
                    for _ in range(config.queries_per_check)
                ]
                knn_probes = [
                    (scenario.query_rng.uniform(0.0, scenario.y_max),
                     1 + scenario.query_rng.randrange(3))
                    for _ in range(config.knn_per_check)
                ]
                checker.check_queries(
                    service, motions, check_queries, now, knn_probes
                )
                if isinstance(scenario, GridScenario):
                    checker.check_grid_oracle(
                        motions,
                        GridScenario.make_oracle(motions),
                        check_queries,
                    )
                checker.check_subscriptions(manager, replay_logs, service)
                if trace_hash is not None:
                    trace_hash.update(
                        repr(sorted(checker.stats.divergences)).encode()
                    )
        manager.close()
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        service.close()
    elapsed = time.perf_counter() - started

    stats = checker.stats
    return SoakReport(
        config=asdict(config),
        ops=ops_total,
        elapsed_s=elapsed,
        write_ops_per_s=(write_ops / elapsed) if elapsed > 0 else 0.0,
        latency_ms=_latency_percentiles(metrics),
        checks={
            "rounds": stats.rounds,
            "query_checks": stats.query_checks,
            "batch_checks": stats.batch_checks,
            "grid_checks": stats.grid_checks,
            "subscription_checks": stats.subscription_checks,
            "restart_checks": stats.restart_checks,
            "skipped_degraded": stats.skipped_degraded,
        },
        divergences=len(stats.divergences),
        divergence_labels=list(stats.divergences),
        recovery=recovery,
        rebalance=rebalance_stats,
        subscription_stats={
            "count": len(_subscription_specs(config, scenario)),
            "deltas_drained": deltas_drained,
        },
        schedule_sha256=sched_hash.hexdigest(),
        trace_sha256=trace_hash.hexdigest() if trace_hash else None,
    )
