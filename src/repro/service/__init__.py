"""The scaling layer: sharded concurrent serving over MotionDatabase.

* :mod:`repro.service.service` — :class:`ShardedMotionService`, the
  hash/velocity-partitioned fan-out/merge engine;
* :mod:`repro.service.replication` —
  :class:`FaultTolerantMotionService`, the replicated, crash-tolerant
  variant (failover, graceful degradation via :class:`PartialResult`,
  WAL recovery);
* :mod:`repro.service.continuous` — :class:`SubscriptionManager`,
  standing ``snapshot``/``within`` queries maintained
  incrementally from boundary-crossing events (Lemma 3's closed-form
  roots) instead of per-tick re-evaluation;
* :mod:`repro.service.faults` — :class:`CrashPointInjector`, the
  durability-boundary killer for the :mod:`repro.storage`
  crash-recovery matrix, and the file corruptors :func:`flip_bit` /
  :func:`truncate_file` (a shard itself is up or down: every fault is
  a crash, taken through ``kill_shard``);
* :mod:`repro.service.wal` — :class:`ShardWAL`, the per-shard
  write-ahead log + checkpoint used for crash recovery;
* :mod:`repro.service.metrics` — :class:`MetricsRegistry`, counters +
  latency/I-O histograms per operation and per shard;
* :mod:`repro.service.sharding` — the routing policies (hash, and
  speed bands whose edges can be re-cut);
* :mod:`repro.service.rebalance` — :class:`RebalanceController`,
  live skew detection + band re-cutting, the displaced objects moved
  by the service's ``rehome`` write sets;
* :mod:`repro.service.parallel` — :class:`WorkerPool`, per-shard
  query sub-batches on worker processes over shared-memory columns;
* :mod:`repro.service.frontend` — :class:`AsyncFrontend`, the
  admission-controlled asyncio front door.

Work reaches the service through its scalar verbs or as lists of the
:mod:`repro.vector.ops` operations (re-exported here) handed to
``apply_batch`` / ``query_batch``.  The package holds only the
service.  Its numbers come from ``benchmarks/perf`` (``make perf``),
its whole-stack oracle from ``python -m repro soak``
(:mod:`repro.soak`).
"""

from repro.service.continuous import (
    Subscription,
    SubscriptionDelta,
    SubscriptionManager,
    replay_deltas,
)
from repro.service.faults import (
    CrashPointInjector,
    CrashPointSpec,
    WRITE_BATCH_CRASH_POINTS,
    flip_bit,
    truncate_file,
)
from repro.service.frontend import (
    AsyncFrontend,
    FrontendConfig,
    Overloaded,
)
from repro.service.metrics import (
    Counter,
    DURABILITY_COUNTERS,
    FRONTEND_COUNTERS,
    Histogram,
    MetricsRegistry,
    PARALLEL_COUNTERS,
    REBALANCE_COUNTERS,
    wal_event_recorder,
)
from repro.service.parallel import (
    WorkerCrashError,
    WorkerPool,
)
from repro.service.rebalance import (
    RebalanceConfig,
    RebalanceController,
    RebalancePlan,
    RebalanceReport,
)
from repro.service.replication import (
    FaultTolerantMotionService,
    PartialResult,
)
from repro.service.service import ROUTER_FACTORIES, ShardedMotionService
from repro.service.sharding import (
    BandRouter,
    HashRouter,
    ShardRouter,
    VelocityRouter,
    mix_oid,
)
from repro.service.wal import ShardWAL
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    ProximityPairs,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

__all__ = [
    "AsyncFrontend",
    "BandRouter",
    "Counter",
    "CrashPointInjector",
    "CrashPointSpec",
    "DURABILITY_COUNTERS",
    "DeregisterOp",
    "FRONTEND_COUNTERS",
    "FaultTolerantMotionService",
    "FrontendConfig",
    "HashRouter",
    "Histogram",
    "MetricsRegistry",
    "Nearest",
    "Overloaded",
    "PARALLEL_COUNTERS",
    "PartialResult",
    "ProximityPairs",
    "REBALANCE_COUNTERS",
    "ROUTER_FACTORIES",
    "RebalanceConfig",
    "RebalanceController",
    "RebalancePlan",
    "RebalanceReport",
    "RegisterOp",
    "ReportOp",
    "ShardRouter",
    "ShardWAL",
    "ShardedMotionService",
    "SnapshotAt",
    "Subscription",
    "SubscriptionDelta",
    "SubscriptionManager",
    "VelocityRouter",
    "WRITE_BATCH_CRASH_POINTS",
    "Within",
    "WorkerCrashError",
    "WorkerPool",
    "flip_bit",
    "mix_oid",
    "replay_deltas",
    "truncate_file",
    "wal_event_recorder",
]
