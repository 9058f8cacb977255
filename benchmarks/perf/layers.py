"""Per-layer metrics of a traced run, and where a request's time went.

Inputs are the spans the shims recorded (:mod:`spans`), the program's
own public counters read before and after the timed phases, and a few
benchmark-side probes.  A metric whose layer did no work on a workload
reads 0 there — that is the design (each layer works hard on one
workload and idles on another), not a gap.

Spans are attributed to the timed phase windows of the traced pass;
set-up spans count only for ``indexes.bulk_build*``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from catalog import END_TO_END
from harness import READ_BATCH_OPS, Run, median
from spans import (
    END,
    NAME,
    PARENT,
    START,
    VALUE,
    children_index,
    exclusive_by_layer,
    self_seconds,
)

#: Harness spans whose time the traced pass must account for.
TOP_LEVEL = ("read_batch", "read_scalar", "write_batch", "write_scalar")

_INDEX_WRITES = {f"indexes.{verb}" for verb in (
    "insert", "update", "delete", "insert_batch", "update_batch",
    "delete_batch")}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (0 for no samples).  Failed or shed
    requests enter as ``inf`` so they sit beyond any limit."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class SpanView:
    """Spans grouped by name, restricted to the timed phase windows."""

    def __init__(self, run: Run) -> None:
        self.spans = run.tracer.spans
        self.kids = children_index(self.spans)
        windows = sorted(
            window for phase in run.phases.values()
            if phase.name != "restart" for window in phase.slices
        )
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        self.everything: Dict[str, List[list]] = defaultdict(list)
        for rec in self.spans:
            self.everything[rec[NAME]].append(rec)
            if any(lo <= rec[START] <= hi for lo, hi in windows):
                self.by_name[rec[NAME]].append(rec)

    def durations(self, name: str) -> List[float]:
        return [rec[END] - rec[START] for rec in self.by_name[name]]

    def selfs(self, name: str) -> List[float]:
        return [self_seconds(rec, self.kids) for rec in self.by_name[name]]

    def within(self, name: str, phase) -> List[list]:
        return [rec for rec in self.by_name[name]
                if any(lo <= rec[START] <= hi for lo, hi in phase.slices)]


def layer_shares(run: Run, view: Optional[SpanView] = None) -> Dict[str, Dict[str, float]]:
    """For each top-level harness span name: every layer's share of the
    summed span time, plus ``(harness)`` — time inside no named child."""
    view = view or SpanView(run)
    out: Dict[str, Dict[str, float]] = {}
    for name in TOP_LEVEL:
        totals: Dict[str, float] = defaultdict(float)
        wall = 0.0
        for top in view.by_name[name]:
            wall += top[END] - top[START]
            for layer, seconds in exclusive_by_layer(top, view.kids).items():
                totals[layer] += seconds
        if wall > 0:
            out[name] = {layer: seconds / wall
                         for layer, seconds in sorted(totals.items())}
    return out


def per_layer_metrics(run: Run) -> Dict[str, float]:
    view = SpanView(run)
    phases = run.phases
    ready, end = run.counters_at_ready, run.counters_at_end

    def delta(counter: str) -> float:
        return end.get(counter, 0) - ready.get(counter, 0)

    m: Dict[str, float] = {}

    # frontend: submit span minus the query_batch that served it.
    served = run.tracer.served_by
    waits, dispatches = [], set()
    for submit in view.by_name["frontend.submit"]:
        batch = served.get(id(submit))
        if batch is not None:
            waits.append((submit[END] - submit[START])
                         - (batch[END] - batch[START]))
            dispatches.add(id(batch))
    # The open-loop phase: none on the write-only durable_10k.
    open_phase = phases.get("mixed" if run.spec.hot else "read_open")
    latencies = open_phase.calls if open_phase else []
    m["frontend.self_ms"] = _ms(median(waits))
    m["frontend.batch_ops_mean"] = (
        len(waits) / len(dispatches) if dispatches else 0.0)
    m["frontend.shed"] = delta("frontend_shed")
    m["frontend.p90_ms"] = _ms(percentile(latencies, 90.0))
    m["frontend.p99_ms"] = _ms(percentile(latencies, 99.0))
    m["frontend.late_ms_p99"] = _ms(percentile(
        open_phase.late if open_phase else [], 99.0))

    for layer in ("service", "replication"):
        for verb in ("query_batch", "apply_batch"):
            m[f"{layer}.{verb}_self_ms"] = _ms(
                median(view.selfs(f"{layer}.{verb}")))

    lookups = delta("cache_hits") + delta("cache_misses")
    m["cache.hit_ratio"] = delta("cache_hits") / lookups if lookups else 0.0
    m["cache.get_us"] = median(view.durations("cache.get")) * 1e6
    m["cache.put_us"] = median(view.durations("cache.put")) * 1e6
    m["cache.on_update_ms"] = _ms(median(
        view.durations("cache.on_update_batch")
        or view.durations("cache.on_update")))
    m["cache.invalidations"] = delta("cache_invalidations")
    m["cache.evictions"] = delta("cache_evictions")
    m["cache.stale_puts"] = delta("cache_stale_puts")

    m["engine.query_batch_ms"] = _ms(
        median(view.durations("engine.query_batch")))
    m["engine.apply_batch_self_ms"] = _ms(
        median(view.selfs("engine.apply_batch")))

    # Kernel time per read op: over the closed-loop batches where the
    # workload has them, else over its open-loop reads.
    reads = phases.get("read_batch") or open_phase
    kernels = view.within("vector.evaluate_batch", reads) if reads else []
    ops = (len(view.within("read_batch", reads)) * READ_BATCH_OPS
           if "read_batch" in phases
           else len(view.within("frontend.submit", reads)) if reads else 0)
    m["vector.evaluate_ms_per_op"] = (
        _ms(sum(rec[END] - rec[START] for rec in kernels)) / ops
        if ops else 0.0)
    rows = sum(rec[VALUE]["rows"]
               for rec in view.by_name["vector.evaluate_batch"])
    returned = sum(rec[VALUE]["returned"]
                   for rec in view.by_name["vector.evaluate_batch"])
    m["vector.rows_per_result"] = rows / returned if returned else 0.0
    shared = view.by_name["shm.apply_events"]
    plain = view.by_name["vector.apply_events"]
    m["vector.columns_apply_ms"] = _ms(median(
        [rec[END] - rec[START] for rec in (shared or plain)]))

    shards_calls = view.by_name["parallel.query_shards"]
    m["parallel.ipc_ms"] = _ms(median([
        (rec[END] - rec[START]) - rec[VALUE]["blocking_s"]
        for rec in shards_calls if rec[VALUE]]))
    m["parallel.worker_busy_ms"] = _ms(median([
        rec[VALUE]["worker_busy_s"] for rec in shards_calls if rec[VALUE]]))
    m["parallel.tasks"] = delta("parallel_tasks")
    m["parallel.respawns"] = float(run.respawns)
    m["parallel.torn_reads"] = delta("parallel_torn_reads")
    m["shm.snapshot_ms"] = run.shm_snapshot_ms
    m["shm.snapshot_bytes"] = run.shm_snapshot_bytes
    inner = sum(rec[END] - rec[START] for rec in plain
                if rec[PARENT] is not None
                and rec[PARENT][NAME] == "shm.apply_events")
    m["shm.write_overhead_ratio"] = (
        sum(rec[END] - rec[START] for rec in shared) / inner
        if inner else 0.0)

    m["indexes.query_ms"] = _ms(median([
        rec[END] - rec[START]
        for rec in view.within("indexes.query", phases["read_scalar"])]))
    io0, io1 = run.io_at_ready, run.io_at_end
    requests = ((io1["reads"] - io0["reads"])
                + (io1["buffer_hits"] - io0["buffer_hits"]))
    m["indexes.buffer_hit_ratio"] = (
        (io1["buffer_hits"] - io0["buffer_hits"]) / requests
        if requests else 0.0)
    writes = phases["write_batch"]
    tops = view.within("write_batch", writes)
    index_write_s = sum(
        rec[END] - rec[START]
        for name in _INDEX_WRITES for rec in view.within(name, writes)
        if rec[PARENT] is None or rec[PARENT][NAME] not in _INDEX_WRITES)
    m["indexes.update_batch_ms"] = (
        _ms(index_write_s) / len(tops) if tops else 0.0)
    builds = view.everything["indexes.bulk_build"]
    m["indexes.bulk_builds"] = float(len(builds))
    m["indexes.bulk_build_ms"] = _ms(
        median([rec[END] - rec[START] for rec in builds]))
    m["indexes.pages_in_use_per_kobj"] = (
        io1["pages_in_use"] / (io1["objects"] / 1000.0)
        if io1["objects"] else 0.0)

    acked = max(1, run.acked_writes)
    m["wal.append_batch_ms"] = _ms(
        median(view.durations("wal.append_batch")))
    m["wal.appends"] = delta("wal_append")
    m["wal.checkpoints"] = delta("wal_checkpoint")
    m["wal.checkpoint_ms"] = _ms(median(view.durations("wal.checkpoint")))
    m["storage.fsyncs_per_update"] = delta("wal_fsync") / acked
    m["storage.fsync_ms_p50"] = _ms(median(view.durations("storage.fsync")))
    # Bytes per update use the traced write phases only: the untraced
    # repeat acknowledges writes too, but records no spans.
    traced_acks = max(1, writes.ops * len(tops)
                      + len(view.by_name["write_scalar"]))
    m["storage.log_bytes_per_update"] = sum(
        rec[VALUE] for rec in view.by_name["storage.log_append"]
    ) / traced_acks
    m["storage.checkpoint_bytes_per_update"] = sum(
        rec[VALUE] for rec in view.by_name["storage.checkpoint_write"]
    ) / traced_acks
    restart = phases.get("restart")
    restores = view.everything["replication.restore_from_disk"]
    m["storage.restore_ms"] = _ms(
        median([rec[END] - rec[START] for rec in restores]))
    extra = restart.extra if restart is not None else {}
    m["storage.recovered_records"] = float(extra.get("recovered_records", 0))
    m["storage.dropped_unsynced_bytes"] = float(
        extra.get("dropped_unsynced_bytes", 0))

    m["metrics.snapshot_ms"] = run.metrics_snapshot_ms
    m["metrics.samples_held"] = float(run.metrics_samples_held)

    def overhead(name: str) -> float:
        """Traced / untraced throughput, from alternate rounds."""
        traced, untraced = run.phases.get(name), run.untraced.get(name)
        if not traced or not untraced:
            return 0.0
        a, b = traced.rate(), untraced.rate()
        return a / b if a and b else 0.0

    m["trace_overhead_ratio.read_qps"] = overhead("read_batch")
    m["trace_overhead_ratio.write_ups"] = overhead("write_batch")

    # The end-to-end metrics the driver's gated list cannot carry: from
    # this run's untraced rounds where a phase has them (end-to-end
    # numbers are measured with tracing off); 0 where the workload has
    # no such thing.
    measured = run.end_to_end({**run.phases, **run.untraced})
    for metric in END_TO_END:
        if metric.gate is None:
            m[metric.per_layer_name] = float(measured[metric.name] or 0.0)
    return m
