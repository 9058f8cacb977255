"""The scaling layer: sharded concurrent serving over MotionDatabase.

* :mod:`repro.service.service` — :class:`ShardedMotionService`, the
  hash/velocity-partitioned fan-out/merge engine;
* :mod:`repro.service.replication` —
  :class:`FaultTolerantMotionService`, the replicated, crash-tolerant
  variant (failover, graceful degradation via :class:`PartialResult`,
  WAL recovery);
* :mod:`repro.service.continuous` — :class:`SubscriptionManager`,
  standing ``snapshot``/``within``/``proximity`` queries maintained
  incrementally from boundary-crossing events (Lemma 3's closed-form
  roots) instead of per-tick re-evaluation;
* :mod:`repro.service.faults` — :class:`FaultInjector`, the seeded
  chaos layer (transient errors, latency spikes, crashes), and
  :class:`CrashPointInjector`, the durability-boundary killer for the
  :mod:`repro.storage` crash-recovery matrix;
* :mod:`repro.service.health` — :class:`CircuitBreaker` and
  :class:`RetryPolicy`;
* :mod:`repro.service.wal` — :class:`ShardWAL`, the per-shard
  write-ahead log + checkpoint used for crash recovery;
* :mod:`repro.service.executor` — :class:`BatchExecutor`, two-phase
  (updates, then queries) epoch execution on a thread pool;
* :mod:`repro.service.metrics` — :class:`MetricsRegistry`, counters +
  latency/I-O histograms per operation and per shard;
* :mod:`repro.service.sharding` — the routing policies plus
  :class:`OwnershipTable`, the fenced oid → shard catalog the
  two-phase migration protocol runs on;
* :mod:`repro.service.rebalance` — :class:`RebalanceController`,
  live skew detection + band re-cutting + crash-safe two-phase
  object migration;
* :mod:`repro.service.parallel` — :class:`WorkerPool`, per-shard
  query sub-batches on worker processes over shared-memory columns;
* :mod:`repro.service.frontend` — :class:`AsyncFrontend`, the
  admission-controlled asyncio front door.

The package holds only the service.  Its numbers come from
``benchmarks/perf`` (``make perf``), its whole-stack oracle from
``python -m repro soak`` (:mod:`repro.soak`).
"""

from repro.service.continuous import (
    Subscription,
    SubscriptionDelta,
    SubscriptionManager,
    replay_deltas,
)
from repro.service.executor import (
    BatchExecutor,
    Deregister,
    Nearest,
    OpResult,
    Operation,
    ProximityPairs,
    Register,
    Report,
    SnapshotAt,
    Within,
    op_class_name,
)
from repro.service.faults import (
    CrashPointInjector,
    CrashPointSpec,
    FaultInjector,
    FaultSpec,
    MIGRATION_CRASH_POINTS,
    WRITE_BATCH_CRASH_POINTS,
    flip_bit,
    truncate_file,
)
from repro.service.health import CircuitBreaker, RetryPolicy
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
    MigrationState,
    OwnershipTable,
    ShardRouter,
    VelocityRouter,
    mix_oid,
)
from repro.service.wal import ShardWAL

__all__ = [
    "AsyncFrontend",
    "BandRouter",
    "BatchExecutor",
    "CircuitBreaker",
    "Counter",
    "CrashPointInjector",
    "CrashPointSpec",
    "DURABILITY_COUNTERS",
    "Deregister",
    "FRONTEND_COUNTERS",
    "FaultInjector",
    "FaultSpec",
    "FaultTolerantMotionService",
    "FrontendConfig",
    "HashRouter",
    "Histogram",
    "MIGRATION_CRASH_POINTS",
    "MetricsRegistry",
    "MigrationState",
    "Nearest",
    "OpResult",
    "Operation",
    "Overloaded",
    "OwnershipTable",
    "PARALLEL_COUNTERS",
    "PartialResult",
    "ProximityPairs",
    "REBALANCE_COUNTERS",
    "ROUTER_FACTORIES",
    "RebalanceConfig",
    "RebalanceController",
    "RebalancePlan",
    "RebalanceReport",
    "Register",
    "Report",
    "RetryPolicy",
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
    "op_class_name",
    "replay_deltas",
    "truncate_file",
    "wal_event_recorder",
]
