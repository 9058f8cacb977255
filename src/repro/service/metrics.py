"""Per-operation metrics for the sharded query service.

The paper's experimental currency is *page I/Os per operation*; a
service that multiplexes many users needs the same number **per
operation class and per shard**, plus wall-clock latency and
throughput.  :class:`MetricsRegistry` is the single sink: every public
operation of :class:`~repro.service.service.ShardedMotionService` runs
inside a :meth:`MetricsRegistry.span`, which times the call and books
the I/O delta the operation produced on each shard it touched.

Counters and histograms are deliberately simple (exact samples, one
registry lock) — workloads here are simulator-scale, and exactness
keeps the differential tests byte-stable.  The snapshot format is a
plain nested dict (see :meth:`MetricsRegistry.snapshot`) so it can be
printed, JSON-dumped, or diffed without this module in scope.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.io_sim.stats import IOSnapshot, IOStats


class Counter:
    """A monotonically increasing integer counter."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Exact-sample histogram with percentile queries.

    Samples are kept verbatim (no bucketing) so ``p50``/``p99`` are
    exact; the service workloads stay well under the point where a
    reservoir would be needed.
    """

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        with self._lock:
            return sum(self._samples)

    @property
    def mean(self) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank), 0 for no samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
            rank = max(1, round(p / 100.0 * len(ordered)))
            return ordered[min(rank, len(ordered)) - 1]


class OperationMetrics:
    """Count, latency histogram and I/O histogram for one operation."""

    def __init__(self, lock: threading.Lock) -> None:
        self.calls = Counter(lock)
        self.errors = Counter(lock)
        self.latency_ms = Histogram(lock)
        self.io_per_op = Histogram(lock)
        self.reads = Counter(lock)
        self.writes = Counter(lock)
        self.buffer_hits = Counter(lock)

    def record(self, latency_s: Optional[float], io: IOSnapshot) -> None:
        """Book one call: its latency (``None``: no sample) and I/O."""
        self.calls.increment()
        if latency_s is not None:
            self.latency_ms.record(latency_s * 1000.0)
        self.io_per_op.record(float(io.total))
        self.reads.increment(io.reads)
        self.writes.increment(io.writes)
        self.buffer_hits.increment(io.buffer_hits)

    def summary(self) -> Dict[str, float]:
        calls = self.calls.value
        return {
            "calls": calls,
            "errors": self.errors.value,
            "p50_ms": round(self.latency_ms.percentile(50.0), 4),
            "p99_ms": round(self.latency_ms.percentile(99.0), 4),
            "avg_io": round(self.io_per_op.mean, 3),
            "reads": self.reads.value,
            "writes": self.writes.value,
            "buffer_hits": self.buffer_hits.value,
        }


class MetricsRegistry:
    """Thread-safe registry of per-operation and per-shard metrics.

    Two keyings are maintained in parallel:

    * by operation name (``"within"``, ``"report"``, ...) — the
      service-wide view;
    * by ``(shard, operation)`` — the per-shard view, fed with each
      shard's own I/O delta so hot shards are visible.

    The registry also owns a *live* :class:`IOStats` aggregate that
    indexes mirror page touches into via
    :meth:`~repro.indexes.base.MobileIndex1D.attach_io_listener`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: Dict[str, OperationMetrics] = {}
        self._shard_ops: Dict[Tuple[int, str], OperationMetrics] = {}
        self._counters: Dict[str, Counter] = {}
        self.live_io = IOStats()
        self._started = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def operation(self, name: str) -> OperationMetrics:
        with self._lock:
            metrics = self._ops.get(name)
            if metrics is None:
                metrics = self._ops[name] = OperationMetrics(self._lock)
        return metrics

    def shard_operation(self, shard: int, name: str) -> OperationMetrics:
        with self._lock:
            metrics = self._shard_ops.get((shard, name))
            if metrics is None:
                metrics = OperationMetrics(self._lock)
                self._shard_ops[(shard, name)] = metrics
        return metrics

    def counter(self, name: str) -> Counter:
        """A named free-form counter, created on first use.

        For subsystem events that are neither operations nor shard
        I/O — e.g. the subscription layer's events-fired /
        deltas-emitted / invalidation tallies.  All named counters
        appear under ``snapshot()["counters"]``.
        """
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(self._lock)
        return counter

    def record_shard_io(self, shard: int, name: str, io: IOSnapshot) -> None:
        """Book one shard's share of an operation: calls and I/O only."""
        self.shard_operation(shard, name).record(None, io)

    def record_shard_latency(
        self, shard: int, name: str, latency_s: float
    ) -> None:
        """Book one shard's compute latency for an operation.

        The inverse of :meth:`record_shard_io` (which books a real I/O
        delta and no latency): this books a real latency sample and
        touches no I/O counter.  Use a dedicated operation name (the
        batch read path uses ``"query_batch.compute"``): these
        percentiles are what the latency-skew rebalance detector reads.
        """
        metrics = self.shard_operation(shard, name)
        metrics.calls.increment()
        metrics.latency_ms.record(latency_s * 1000.0)

    def shard_latency_percentile(
        self, name: str, p: float
    ) -> Dict[int, float]:
        """Per-shard ``p``-th latency percentile for one operation.

        Shards with no samples under ``name`` are omitted; the
        rebalance controller treats an absent shard as "no evidence",
        not "fast".
        """
        with self._lock:
            keyed = [
                (shard, metrics)
                for (shard, op), metrics in self._shard_ops.items()
                if op == name
            ]
        return {
            shard: metrics.latency_ms.percentile(p)
            for shard, metrics in keyed
            if metrics.latency_ms.count
        }

    @contextmanager
    def span(self, name: str) -> Iterator["Span"]:
        """Time one operation; the caller adds per-shard I/O deltas."""
        span = Span(self, name)
        start = time.perf_counter()
        try:
            yield span
        except Exception:
            self.operation(name).errors.increment()
            raise
        finally:
            span.close(time.perf_counter() - start)

    # -- reporting ------------------------------------------------------------

    def uptime_s(self) -> float:
        return time.perf_counter() - self._started

    def snapshot(self) -> Dict[str, object]:
        """The metrics snapshot: plain dicts, ready to print or dump.

        Layout::

            {
              "uptime_s": 1.23,
              "live_io": {"reads": R, "writes": W, "buffer_hits": H},
              "operations": {op: {calls, errors, p50_ms, p99_ms,
                                  avg_io, reads, writes, buffer_hits}},
              "counters": {name: value},     # free-form named counters
              "shards": {shard_id: {op: {...same keys...}}},
            }
        """
        with self._lock:
            ops_view = dict(self._ops)
            shard_ops_view = dict(self._shard_ops)
            counters_view = {
                name: counter.value
                for name, counter in self._counters.items()
            }
        operations = {
            name: metrics.summary() for name, metrics in ops_view.items()
        }
        shards: Dict[int, Dict[str, Dict[str, float]]] = {}
        for (shard, name), metrics in shard_ops_view.items():
            shards.setdefault(shard, {})[name] = metrics.summary()
        return {
            "uptime_s": round(self.uptime_s(), 6),
            "live_io": {
                "reads": self.live_io.reads,
                "writes": self.live_io.writes,
                "buffer_hits": self.live_io.buffer_hits,
            },
            "operations": operations,
            "counters": counters_view,
            "shards": shards,
        }


#: Event names the durability layer emits (via ``wal_event_recorder``)
#: and their meaning; all land in ``snapshot()["counters"]`` prefixed
#: ``wal_``.
DURABILITY_COUNTERS = {
    "wal_append": "records appended through a ShardWAL",
    "wal_fsync": "fsync() calls issued by durable logs",
    "wal_checkpoint": "checkpoints installed",
    "wal_recovery": "databases rebuilt from checkpoint + log",
    "wal_truncated_bytes": "torn-tail bytes discarded during recovery",
    "wal_torn_tail": "log opens that found (and cut) a torn tail",
    "wal_recovered_records": "records recovered from log segments",
    "wal_manifest_fallback": "manifest losses repaired by dir scan",
    "wal_history_loss": "history shards recovered without an archive",
}


#: Counter names the live-rebalancing subsystem books (service side:
#: the band-layout counter; controller side: run and per-move outcome
#: accounting — see :mod:`repro.service.rebalance`).
REBALANCE_COUNTERS = {
    "rebalance_runs": "RebalanceController.rebalance_once invocations",
    "rebalance_planned_moves": "objects displaced by a new band cut",
    "rebalance_migrations": "displaced objects moved to their new group",
    "rebalance_aborted": "moves no live shard of the new group took",
    "rebalance_band_updates": "band-layout changes installed",
    "rebalance_auto_triggers": "passes started because a detector "
                               "(count or latency skew) tripped",
}


#: Counter names the multi-process execution tier books (see
#: :mod:`repro.service.parallel` and the pooled leg of
#: ``ShardedMotionService.query_batch``).
PARALLEL_COUNTERS = {
    "parallel_tasks": "per-shard sub-batches dispatched to the pool",
    "parallel_worker_deaths": "worker processes found dead mid-batch",
    "parallel_respawns": "replacement workers spawned",
    "parallel_inline_fallbacks": "sub-batches recomputed in-process "
                                 "after a pool failure",
    "parallel_torn_reads": "seqlock snapshots that never stabilized",
}


#: Counter names the asyncio serving layer books (see
#: :mod:`repro.service.frontend`); per-request latency lands under
#: ``operations["frontend.<op>"]``.
FRONTEND_COUNTERS = {
    "frontend_accepted": "requests admitted to the queue",
    "frontend_shed": "requests rejected with Overloaded",
    "frontend_completed": "requests answered",
    "frontend_failed": "requests that raised inside the service",
    "frontend_health_checks": "background health-check sweeps",
    "frontend_rebalances": "rebalance passes triggered by the "
                           "health-check cadence",
}


def wal_event_recorder(registry: MetricsRegistry):
    """An ``on_event`` hook that books storage events into ``registry``.

    The storage layer (:mod:`repro.storage`) reports ``(name, delta)``
    events with bare names (``"fsync"``, ``"truncated_bytes"``, ...);
    this adapter namespaces them as ``wal_<name>`` named counters so a
    metrics snapshot shows the durability activity next to the
    service's operation counters.
    """

    def record(name: str, delta: int = 1) -> None:
        registry.counter(f"wal_{name}" if not name.startswith("wal_")
                         else name).increment(delta)

    return record


class Span:
    """One in-flight operation: accumulates per-shard I/O deltas."""

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        self._registry = registry
        self.name = name
        self._io = IOSnapshot()
        self._closed = False

    def add_shard_io(self, shard: int, io: IOSnapshot) -> None:
        """Attribute ``io`` to ``shard`` and to the operation total."""
        self._io = self._io + io
        self._registry.record_shard_io(shard, self.name, io)

    def close(self, latency_s: float) -> None:
        if self._closed:
            return
        self._closed = True
        self._registry.operation(self.name).record(latency_s, self._io)
