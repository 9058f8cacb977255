"""Live shard rebalancing for speed-partitioned services.

Speed partitioning (the velocity/band routers) wins because a shard
whose population spans a narrow speed band has tight dual-space
bounding regions: the paper's §3.5 query rectangles expand with the
band's velocity extent, so per-shard query cost scales like
``n_b * w_b`` — population times band width.  A static even cut is
only balanced for a uniform speed distribution; real workloads skew
(rush-hour slowdowns, a fleet of near-stationary objects), piling
most objects into one band while the others idle.

:class:`RebalanceController` closes the loop:

1. **detect** — read the per-shard ownership counts and per-shard
   query latency from the service's catalog/metrics and compute the
   skew ratio ``max / mean``;
2. **plan** — re-cut the band edges equi-depth against the observed
   speed distribution (each band gets ~``n/k`` objects), scoring the
   old and new layouts with the ``Σ n_b · w_b`` dual-space-expansion
   cost model;
3. **execute** — install the new layout (:meth:`~repro.service.service.
   ShardedMotionService.set_bands`, an epoch-numbered, WAL-logged
   change) and hand the displaced objects to :meth:`~repro.service.
   service.ShardedMotionService.rehome` in fixed-size chunks: each
   chunk is one write set whose cross-group moves write the new group
   before they drop the old copies.

The controller never mutates shard state directly — every effect is a
write set of the service, so a crash at any point leaves the service
in a state its recovery path already handles (newest-motion election
lands every object on the group the restored router names).  A move
no live shard of the new group takes keeps its object in place and
counts under ``rebalance_aborted``; the remaining moves proceed.

Outcome accounting (all on the service's
:class:`~repro.service.metrics.MetricsRegistry`; see
``REBALANCE_COUNTERS``):

* ``rebalance_runs`` — :meth:`RebalanceController.rebalance_once`
  invocations;
* ``rebalance_planned_moves`` — objects the new cut displaced;
* ``rebalance_migrations`` — objects moved to their new group;
* ``rebalance_aborted`` — moves refused (no live shard of the new
  group took the object, which stays in place);
* plus the service-side ``rebalance_band_updates``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObjectNotFoundError
from repro.service.sharding import BandRouter

#: Displaced objects per :meth:`~repro.service.service.
#: ShardedMotionService.rehome` call.  A rehome holds every shard lock,
#: and a move costs about 0.1 ms (20k objects, r = 2,
#: ``fsync="always"``, 2-core Xeon), so a 100k-object re-cut done as one
#: write set would stall all traffic for seconds on end.  A chunk this
#: size holds the locks for about 30 ms, lets reads and reports run
#: between chunks as the old per-object moves did, and still shares
#: each shard's log sync among its moves.
_REHOME_CHUNK = 256

#: The :class:`~repro.service.metrics.MetricsRegistry` per-shard
#: operation the latency detector reads: the span both query legs
#: (inline and pooled) record per shard sub-batch.
_LATENCY_OP = "query_batch.compute"


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs for the controller.

    skew_threshold:
        Trigger when ``max(count) / mean(count)`` meets or exceeds
        this (1.0 is perfectly balanced; 1.5 tolerates 50% over the
        mean).
    min_objects:
        Below this population a "rebalance" is noise; do nothing.
    max_migrations:
        Cap on migrations per :meth:`~RebalanceController.
        rebalance_once` run (0 = move everything the new cut
        displaced).  A capped run converges over repeated ticks —
        the soak harness's mid-run rebalances rely on that.
    latency_skew_threshold:
        Second trigger: ``max(p99) / mean(p99)`` over the per-shard
        compute-latency spans.  Object counts miss a shard that is
        slow *per object* (wide band → wide §3.5 rectangles, or a
        cold worker lane); observed latency is the ground truth the
        counts approximate.
    """

    skew_threshold: float = 1.5
    min_objects: int = 16
    max_migrations: int = 0
    latency_skew_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.skew_threshold < 1.0:
            raise ValueError(
                f"skew_threshold must be >= 1.0, got {self.skew_threshold}"
            )
        if self.latency_skew_threshold < 1.0:
            raise ValueError(
                f"latency_skew_threshold must be >= 1.0, got "
                f"{self.latency_skew_threshold}"
            )
        if self.min_objects < 0 or self.max_migrations < 0:
            raise ValueError("min_objects / max_migrations must be >= 0")


@dataclass(frozen=True)
class RebalancePlan:
    """One proposed band re-cut, scored before execution."""

    edges: Tuple[float, ...]
    counts_before: Tuple[int, ...]
    counts_after: Tuple[int, ...]
    cost_before: float
    cost_after: float

    @property
    def improves(self) -> bool:
        """Does the new cut strictly lower the dual-space cost?"""
        return self.cost_after < self.cost_before


@dataclass
class RebalanceReport:
    """What one :meth:`RebalanceController.rebalance_once` did."""

    triggered: bool
    skew_before: float
    skew_after: float
    band_epoch: Optional[int] = None
    planned_moves: int = 0
    migrated: int = 0
    aborted: int = 0
    skipped: int = 0
    cost_before: float = 0.0
    cost_after: float = 0.0
    counts_before: Tuple[int, ...] = ()
    counts_after: Tuple[int, ...] = ()
    outcomes: Dict[int, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "triggered": self.triggered,
            "skew_before": self.skew_before,
            "skew_after": self.skew_after,
            "band_epoch": self.band_epoch,
            "planned_moves": self.planned_moves,
            "migrated": self.migrated,
            "aborted": self.aborted,
            "skipped": self.skipped,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "counts_before": list(self.counts_before),
            "counts_after": list(self.counts_after),
        }


class RebalanceController:
    """Detect → plan → rehome, over a band-routed service.

    Works against the plain :class:`~repro.service.service.
    ShardedMotionService` and the fault-tolerant subclass alike —
    both expose the same ``set_bands`` / ``rehome`` pair; the
    fault-tolerant one adds WAL durability and replica fan-out
    underneath them.

    Parameters
    ----------
    service:
        A sharded service whose router is a :class:`BandRouter`
        (``router="velocity"`` or ``router="band"``).
    config:
        :class:`RebalanceConfig`; defaults apply when omitted.

    A move dies at the crash points of the logs it writes: arm them
    through the fault-tolerant service's ``wal_crash_hook``.
    """

    def __init__(
        self,
        service,
        config: Optional[RebalanceConfig] = None,
    ) -> None:
        if not isinstance(service.router, BandRouter):
            raise ValueError(
                f"rebalancing needs a band router, got "
                f"{getattr(service.router, 'name', service.router)!r}"
            )
        self.service = service
        self.config = config or RebalanceConfig()
        self.metrics = service.metrics

    # -- detection ---------------------------------------------------------------

    def skew(self, counts: Optional[List[int]] = None) -> float:
        """``max / mean`` over per-shard owned-object counts (1.0 is
        perfectly balanced; 0.0 for an empty service)."""
        if counts is None:
            counts = self.service.primary_counts()
        total = sum(counts)
        if total == 0:
            return 0.0
        return max(counts) * len(counts) / total

    def latency_skew(self) -> float:
        """``max / mean`` over per-shard p99 compute latency.

        Reads the ``query_batch.compute`` spans the service records per
        shard sub-batch (:meth:`MetricsRegistry.
        shard_latency_percentile`).  Returns 0.0 — "no evidence" —
        until at least two shards have samples: one hot shard proves
        nothing about *relative* imbalance.
        """
        p99 = self.metrics.shard_latency_percentile(_LATENCY_OP, 99.0)
        if len(p99) < 2:
            return 0.0
        values = list(p99.values())
        mean = sum(values) / len(values)
        if mean <= 0.0:
            return 0.0
        return max(values) / mean

    def should_rebalance(self) -> bool:
        """Either detector trips: count skew **or** latency skew.

        The count detector sees placement imbalance; the latency
        detector sees cost imbalance the counts can't (a band whose
        width makes every query expensive, a persistently slow
        lane).  Population floor applies to both.
        """
        counts = self.service.primary_counts()
        if sum(counts) < self.config.min_objects:
            return False
        if self.skew(counts) >= self.config.skew_threshold:
            return True
        return self.latency_skew() >= self.config.latency_skew_threshold

    def maybe_rebalance(self) -> Optional[RebalanceReport]:
        """One pass iff :meth:`should_rebalance` — the frontend's
        health-check cadence entry point.

        Runs with ``force=True`` because the gate already fired here
        (the latency detector can trip while counts look balanced, and
        :meth:`rebalance_once`'s own gate only knows counts); a cut
        that cannot improve the cost model still migrates nothing.
        """
        if not self.should_rebalance():
            return None
        self.metrics.counter("rebalance_auto_triggers").increment()
        return self.rebalance_once(force=True)

    # -- planning ----------------------------------------------------------------

    def plan(self) -> RebalancePlan:
        """Equi-depth band cut against the live speed distribution.

        Quantile edges put ~``n/k`` objects per band; a monotonic
        fixup nudges degenerate quantiles (many identical speeds)
        apart so the cut stays strictly increasing inside
        ``(0, v_max)``.  Both layouts are scored with the
        ``Σ n_b · w_b`` cost model — the dual-space query-expansion
        proxy (a band's §3.5 rectangles grow with its width, and
        every resident object pays that growth).
        """
        router = self.service.router
        speeds = sorted(
            abs(m.v) for m in self.service.motion_snapshot().values()
        )
        edges = self._equi_depth_edges(speeds)
        counts_before, cost_before = self._score(
            speeds, router.band_edges()
        )
        counts_after, cost_after = self._score(speeds, edges)
        return RebalancePlan(
            edges=edges,
            counts_before=counts_before,
            counts_after=counts_after,
            cost_before=cost_before,
            cost_after=cost_after,
        )

    def _equi_depth_edges(self, speeds: List[float]) -> Tuple[float, ...]:
        router = self.service.router
        k = router.shards
        v_max = router.v_max
        step = v_max * 1e-6
        edges: List[float] = []
        previous = 0.0
        n = len(speeds)
        for i in range(1, k):
            raw = speeds[min(n - 1, (i * n) // k)] if n else (
                v_max * i / k
            )
            remaining = (k - 1) - i
            lo = previous + step
            hi = v_max - (remaining + 1) * step
            edge = min(max(raw, lo), hi)
            edges.append(edge)
            previous = edge
        return tuple(edges)

    def _score(
        self, speeds: List[float], edges: Tuple[float, ...]
    ) -> Tuple[Tuple[int, ...], float]:
        """Per-band populations and the ``Σ n_b · w_b`` cost of one cut
        (``speeds`` must be sorted ascending)."""
        v_max = self.service.router.v_max
        bounds = [0.0, *edges, v_max]
        cuts = [0, *(bisect.bisect_right(speeds, e) for e in edges),
                len(speeds)]
        counts = []
        cost = 0.0
        for band in range(len(bounds) - 1):
            n_b = cuts[band + 1] - cuts[band]
            counts.append(n_b)
            cost += n_b * (bounds[band + 1] - bounds[band])
        return tuple(counts), cost

    def moves(self) -> List[Tuple[int, int, int]]:
        """Objects the current layout displaces: ``(oid, source,
        dest)`` wherever the router's answer differs from the
        catalog's."""
        router = self.service.router
        displaced: List[Tuple[int, int, int]] = []
        for oid, motion in sorted(
            self.service.motion_snapshot().items()
        ):
            try:
                current = self.service.shard_of(oid)
            except ObjectNotFoundError:
                continue  # deregistered under us
            target = router.route(oid, motion)
            if target != current:
                displaced.append((oid, current, target))
        return displaced

    # -- execution ---------------------------------------------------------------

    def rebalance_once(self, force: bool = False) -> RebalanceReport:
        """One full detect → plan → rehome pass.

        ``force=True`` skips the skew gate (benchmarks, tests); the
        population floor still applies.  Each planned move's outcome is
        ``"committed"`` (the object landed on its new group),
        ``"aborted"`` (no live shard of that group took it; it stays in
        place) or ``"skipped"`` (gone, or already placed by the time
        its chunk ran).  The report's ``skew_after`` reflects the
        catalog after this run's moves, so repeated capped runs show
        monotone convergence.
        """
        self.metrics.counter("rebalance_runs").increment()
        counts = self.service.primary_counts()
        skew_before = self.skew(counts)
        report = RebalanceReport(
            triggered=False,
            skew_before=skew_before,
            skew_after=skew_before,
            counts_before=tuple(counts),
            counts_after=tuple(counts),
        )
        if sum(counts) < self.config.min_objects:
            return report
        if not force and skew_before < self.config.skew_threshold:
            return report
        plan = self.plan()
        report.triggered = True
        report.cost_before = plan.cost_before
        report.cost_after = plan.cost_after
        if plan.edges != self.service.router.band_edges():
            report.band_epoch = self.service.set_bands(plan.edges)
        moves = self.moves()
        if self.config.max_migrations:
            moves = moves[: self.config.max_migrations]
        report.planned_moves = len(moves)
        self.metrics.counter("rebalance_planned_moves").increment(
            len(moves)
        )
        oids = [oid for oid, _source, _dest in moves]
        for begin in range(0, len(oids), _REHOME_CHUNK):
            chunk = oids[begin:begin + _REHOME_CHUNK]
            moved = self.service.rehome(chunk)
            for oid in chunk:
                if oid not in moved:
                    outcome = "skipped"
                    report.skipped += 1
                elif moved[oid] is None:
                    outcome = "committed"
                    report.migrated += 1
                    self.metrics.counter("rebalance_migrations").increment()
                else:
                    outcome = "aborted"
                    report.aborted += 1
                    self.metrics.counter("rebalance_aborted").increment()
                report.outcomes[oid] = outcome
        after = self.service.primary_counts()
        report.skew_after = self.skew(after)
        report.counts_after = tuple(after)
        return report
