"""Live shard rebalancing: router, planner, and the rehome write set.

The functional half of the rebalancing acceptance criteria (the chaos
half lives in ``test_rebalance_chaos.py``):

* :class:`BandRouter` validates cuts and gates replacements on a
  strictly newer band epoch;
* the controller's equi-depth plan flattens an adversarially skewed
  population and its dual-space cost model agrees the new cut is
  cheaper;
* ``rehome`` moves exactly the displaced objects, each as one
  ``ReportOp`` of its unchanged motion through the write plan's
  cross-group move; reads between re-cut and move, and between moves,
  agree with the oracle, and a speed-crossing report never forks
  ownership (the stale-routing regression);
* a rebalance racing a writer loses no acknowledged report;
* a full controller pass improves spread at least 2x, under the plain
  service, under replication, and mid-soak against every oracle.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import ShardUnavailableError
from repro.service import (
    BandRouter,
    FaultTolerantMotionService,
    RebalanceConfig,
    RebalanceController,
)
from repro.service import rebalance
from repro.service.service import ShardedMotionService
from repro.soak.harness import SoakConfig, run_soak
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    ReportOp,
    SnapshotAt,
    Within,
)

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = pytest.mark.rebalance


def make_service(shards=4, **kwargs) -> ShardedMotionService:
    return ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=shards, router="velocity", **kwargs
    )


def skewed_motion(rng: random.Random):
    """80% of draws in the slowest tenth of the speed range."""
    if rng.random() < 0.8:
        v = V_MIN + rng.random() * 0.1 * (V_MAX - V_MIN)
    else:
        v = rng.uniform(V_MIN, V_MAX)
    return rng.uniform(0.0, Y_MAX), v * rng.choice((-1.0, 1.0)), 0.0


def populate_skewed(service, n, seed, oracle=None):
    rng = random.Random(seed)
    for oid in range(n):
        y0, v, t0 = skewed_motion(rng)
        service.register(oid, y0, v, t0)
        if oracle is not None:
            oracle.register(oid, y0, v, t0)


# -- router units -----------------------------------------------------------------


def test_velocity_router_default_cut_is_even():
    service = make_service(shards=4)
    assert service.router.band_edges() == tuple(
        V_MAX * i / 4 for i in range(1, 4)
    )
    assert service.router.epoch == 0
    # |v| routes: direction never matters to placement.
    assert service.router.band_of(-V_MIN) == service.router.band_of(V_MIN)
    assert service.router.band_of(V_MAX * 10) == 3  # clamped, still routes


def test_band_router_validates_cuts_and_epochs():
    router = BandRouter(3, V_MAX)
    with pytest.raises(ValueError):
        router.set_bands((0.5,), epoch=1)  # wrong edge count
    with pytest.raises(ValueError):
        router.set_bands((0.9, 0.4), epoch=1)  # not increasing
    with pytest.raises(ValueError):
        router.set_bands((0.4, V_MAX + 1.0), epoch=1)  # out of range
    router.set_bands((0.4, 0.9), epoch=3)
    assert router.band_edges() == (0.4, 0.9)
    with pytest.raises(ValueError):
        router.set_bands((0.3, 0.8), epoch=3)  # not strictly newer
    # A rejected cut leaves the previous layout fully intact.
    assert router.band_edges() == (0.4, 0.9)
    assert router.epoch == 3


# -- planning ---------------------------------------------------------------------


def test_equi_depth_plan_flattens_skew_and_lowers_cost():
    service = make_service(shards=4)
    populate_skewed(service, 400, seed=1)
    controller = RebalanceController(service)
    assert controller.skew() > 2.0  # the even cut piles objects up
    plan = controller.plan()
    assert len(plan.edges) == 3
    assert list(plan.edges) == sorted(plan.edges)
    # Equi-depth: every planned band holds roughly n / shards objects.
    assert max(plan.counts_after) <= 2 * min(plan.counts_after)
    assert plan.cost_after < plan.cost_before
    assert plan.improves


# -- rehome -----------------------------------------------------------------------


def displaced(service):
    """Oids the current cut places off their owner."""
    return [
        oid for oid, motion in sorted(service.motion_snapshot().items())
        if service.router.route(oid, motion) != service.shard_of(oid)
    ]


@pytest.mark.parametrize("replication", [0, 1, 2])
def test_rehome_moves_exactly_the_displaced_objects(replication):
    """``rehome`` skips unknown and already-placed oids, moves each
    displaced one onto exactly the group the router names with its
    motion unchanged, and announces one ``ReportOp`` per move."""
    if replication:
        service = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, router="velocity",
            replication_factor=replication,
        )
    else:
        service = make_service(shards=4)
    populate_skewed(service, 80, seed=8)
    service.set_bands((0.2, 0.25, 0.3))
    moving = displaced(service)
    assert 0 < len(moving) < 80
    before = service.motion_snapshot()
    seen = []
    service.attach_update_listener(lambda writes: seen.append(list(writes)))
    moved = service.rehome([999, *range(80)])
    assert moved == {oid: None for oid in moving}
    assert seen == [[
        ReportOp(oid, before[oid].y0, before[oid].v, before[oid].t0)
        for oid in moving
    ]]
    assert service.motion_snapshot() == before
    assert displaced(service) == []
    populations = service.shard_populations()
    for oid in before:
        holders = [s for s, pop in enumerate(populations) if oid in pop]
        assert holders == sorted(service.replica_group(service.shard_of(oid)))
    assert service.rehome(range(80)) == {}


def test_a_rehome_lands_on_a_live_replica_of_a_dead_primary():
    """A move whose new primary is down lands on the live replica of
    its group, as a report's cross-group move does; a move whose whole
    new group is down is refused and the object stays in place.
    Recovery then leaves each object on exactly its group."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, router="velocity",
        replication_factor=2,
    )
    service.register(1, 100.0, 0.5, 0.0)   # band 1: group (1, 2)
    service.register(2, 200.0, 0.3, 0.0)   # band 0: group (0, 1)
    service.set_bands((0.1, 0.25, 0.4))    # 1 → (3, 0), 2 → (2, 3)
    service.kill_shard(2)
    service.kill_shard(3)
    expected = service.motion_snapshot()
    moved = service.rehome([1, 2])
    assert moved[1] is None
    assert isinstance(moved[2], ShardUnavailableError)
    assert service.shard_of(1) == 3 and service.shard_of(2) == 0
    assert [1 in service._shards[s] for s in (0, 1)] == [True, False]
    assert [2 in service._shards[s] for s in (0, 1)] == [True, True]
    assert service.motion_snapshot() == expected
    service.recover_shard(2)
    service.recover_shard(3)
    assert [1 in db for db in service._shards] == [True, False, False, True]
    assert [2 in db for db in service._shards] == [True, True, False, False]


def test_speed_crossing_report_never_forks_ownership():
    """The stale-routing regression (satellite of the rebalance work):
    routing consults the catalog, never a motion recompute, so
    a report that crosses band edges leaves exactly one owner."""
    service = make_service(shards=4)
    service.register(1, 100.0, 0.2, 0.0)  # band 0
    for tick in range(1, 6):
        # Bounce between the slowest and fastest bands.
        v = 1.6 if tick % 2 else 0.2
        service.report(1, 100.0 + tick, v, float(tick))
        holders = [
            shard for shard, pop in enumerate(service.shard_populations())
            if 1 in pop
        ]
        assert holders == [service.shard_of(1)]
        assert service.snapshot_at(99.0, 111.0, float(tick)) == {1}
    assert service.location_of(1, 5.0) == 105.0


# -- the controller end to end ----------------------------------------------------


@pytest.mark.parametrize("path", ["scalar", "batch"])
def test_a_fraction_field_inside_a_migration_reaches_every_replica(
    tmp_path, path
):
    """Admission takes a finite ``Fraction``.  A report carrying one
    that moves its object to another replica group, and the rehome
    that moves it again after a re-cut, log and catalog the float64
    the shard rows hold: the write lands on every replica of each new
    group, is logged on each, and a cold restore reads it back.  (A
    record of such a move used to raise ``TypeError`` after the first
    replica had applied the op: one replica ahead of its own log, the
    others behind, and on the batch path a ``Fraction`` in the
    catalog.)"""

    def build():
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
            router="velocity", wal_dir=str(tmp_path),
        )

    service = build()
    service.register(1, 100.0, 0.2, 0.0)  # band 0: group (0, 1)
    if path == "scalar":
        service.report(1, Fraction(203, 2), 1.0, 2.0)
    else:
        op = ReportOp(1, Fraction(203, 2), 1.0, 2.0)
        assert service.apply_batch([op]) == [None]
    want = LinearMotion1D(101.5, 1.0, 2.0)
    assert [1 in db for db in service._shards] == [False, False, True, True]
    service.set_bands((0.1, 0.2, 0.5))  # band 3: group (3, 0)
    assert service.rehome([1]) == {1: None}
    assert [1 in db for db in service._shards] == [True, False, False, True]
    assert service._shards[0].motion_of(1) == want
    assert service._shards[3].motion_of(1) == want
    logged = {}
    for shard, node in enumerate(service._nodes):
        for record in node.wal.tail():
            if record.get("oid") == 1 and record.get("t0") == 2.0:
                logged.setdefault(shard, []).append(
                    (record["kind"], record["y0"], record["v"])
                )
    assert logged == {
        0: [("insert", 101.5, 1.0)],
        2: [("insert", 101.5, 1.0)],
        3: [("insert", 101.5, 1.0), ("update", 101.5, 1.0)],
    }
    catalog = service.motion_snapshot()[1]
    assert catalog == want
    assert {type(x) for x in (catalog.y0, catalog.v, catalog.t0)} == {float}
    service.close()
    restored = build()
    restored.restore_from_disk()
    assert restored.motion_snapshot() == {1: want}
    assert restored.shard_of(1) == 3
    restored.close()


def test_rebalance_once_improves_spread_two_fold():
    service = make_service(shards=4)
    populate_skewed(service, 400, seed=2)
    controller = RebalanceController(service)
    report = controller.rebalance_once(force=True)
    assert report.triggered
    assert report.migrated > 0
    assert report.skew_after * 2 <= report.skew_before
    assert sum(report.counts_after) == 400  # nothing lost, nothing forked
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_runs"] == 1
    assert counters["rebalance_migrations"] == report.migrated
    assert counters["rebalance_band_updates"] >= 1
    # Convergence: a second pass finds an already-balanced catalog.
    assert controller.rebalance_once(force=True).migrated == 0


def test_rebalance_respects_gates_and_caps():
    service = make_service(shards=4)
    populate_skewed(service, 60, seed=3)
    gated = RebalanceController(
        service, RebalanceConfig(min_objects=1000)
    )
    assert not gated.rebalance_once(force=True).triggered
    capped = RebalanceController(
        service, RebalanceConfig(min_objects=1, max_migrations=5)
    )
    report = capped.rebalance_once(force=True)
    assert report.triggered
    assert report.migrated + report.aborted + report.skipped <= 5


def test_latency_skew_detector_needs_two_reporting_shards():
    service = make_service(shards=4)
    populate_skewed(service, 100, seed=4)
    controller = RebalanceController(service)
    # No compute spans at all, then only one shard reporting: both are
    # "no evidence", not "infinitely skewed".
    assert controller.latency_skew() == 0.0
    service.metrics.record_shard_latency(0, "query_batch.compute", 0.1)
    assert controller.latency_skew() == 0.0
    service.metrics.record_shard_latency(1, "query_batch.compute", 0.1)
    assert controller.latency_skew() == pytest.approx(1.0)


def test_latency_skew_trips_should_rebalance_when_counts_are_even():
    service = make_service(shards=4)
    rng = random.Random(5)
    # A perfectly even placement: the count detector sees nothing.
    for oid in range(200):
        v = V_MIN + (V_MAX - V_MIN) * ((oid % 4) + 0.5) / 4
        service.register(oid, rng.uniform(0, Y_MAX), v, 0.0)
    controller = RebalanceController(
        service,
        RebalanceConfig(skew_threshold=1.5, latency_skew_threshold=2.0),
    )
    assert controller.skew() == pytest.approx(1.0)
    assert not controller.should_rebalance()
    # One slow lane: cost imbalance the counts cannot see.
    for shard in range(4):
        latency = 0.200 if shard == 0 else 0.010
        for _ in range(10):
            service.metrics.record_shard_latency(
                shard, "query_batch.compute", latency
            )
    assert controller.latency_skew() > 2.0
    assert controller.should_rebalance()
    report = controller.maybe_rebalance()
    assert report is not None
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_auto_triggers"] == 1
    assert counters["rebalance_runs"] == 1


def test_maybe_rebalance_is_a_no_op_when_balanced():
    service = make_service(shards=4)
    rng = random.Random(6)
    for oid in range(100):
        service.register(
            oid,
            rng.uniform(0, Y_MAX),
            rng.uniform(V_MIN, V_MAX),
            0.0,
        )
    controller = RebalanceController(service)
    # Balanced latencies: the gate stays shut, no run is charged.
    for shard in range(4):
        service.metrics.record_shard_latency(
            shard, "query_batch.compute", 0.01
        )
    if not controller.should_rebalance():
        assert controller.maybe_rebalance() is None
        counters = service.metrics.snapshot()["counters"]
        assert counters.get("rebalance_auto_triggers", 0) == 0
        assert counters.get("rebalance_runs", 0) == 0


def test_replicated_rebalance_matches_oracle():
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=4,
        replication_factor=2,
        router="velocity",
    )
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    populate_skewed(service, 200, seed=4, oracle=oracle)
    controller = RebalanceController(service)
    report = controller.rebalance_once(force=True)
    assert report.migrated > 0
    assert report.skew_after * 2 <= report.skew_before
    now = service.now
    assert service.within(0.0, Y_MAX, 0.0, now + 10.0) == oracle.within(
        0.0, Y_MAX, 0.0, now + 10.0
    )
    assert service.snapshot_at(
        0.0, Y_MAX / 2, now + 1.0
    ) == oracle.snapshot_at(0.0, Y_MAX / 2, now + 1.0)
    assert service.nearest(Y_MAX / 3, now + 1.0, k=5) == oracle.nearest(
        Y_MAX / 3, now + 1.0, k=5
    )
    service.close()


# -- the migration-storm differential (queries between a cut and its moves) -------


def check_against_oracle(service, oracle, rng):
    """Scalar vs ``query_batch`` vs oracle, dedup asserted by type."""
    now = max(service.now, oracle.now)
    y1 = rng.uniform(0.0, Y_MAX / 2)
    y2 = y1 + rng.uniform(50.0, Y_MAX / 2)
    ops = [
        Within(y1, y2, now, now + rng.uniform(1.0, 10.0)),
        SnapshotAt(y1, y2, now + 1.0),
        Nearest(rng.uniform(0.0, Y_MAX), now + 1.0, 5),
        ProximityPairs(2.0, now, now + 2.0),
    ]
    batch = service.query_batch(ops)
    scalar = [
        service.within(ops[0].y1, ops[0].y2, ops[0].t1, ops[0].t2),
        service.snapshot_at(ops[1].y1, ops[1].y2, ops[1].t),
        service.nearest(ops[2].y, ops[2].t, ops[2].k),
        service.proximity_pairs(ops[3].d, ops[3].t1, ops[3].t2),
    ]
    expected = [
        oracle.within(ops[0].y1, ops[0].y2, ops[0].t1, ops[0].t2),
        oracle.snapshot_at(ops[1].y1, ops[1].y2, ops[1].t),
        oracle.nearest(ops[2].y, ops[2].t, ops[2].k),
        oracle.proximity_pairs(ops[3].d, ops[3].t1, ops[3].t2),
    ]
    assert batch == scalar == expected
    ranked_oids = [oid for oid, _ in scalar[2]]
    assert len(ranked_oids) == len(set(ranked_oids))  # kNN dedups by oid
    assert all(a < b for a, b in scalar[3])  # no self-pairs from copies


def test_migration_storm_differential():
    """Scalar vs batch vs oracle right after a re-cut (the displaced
    objects still on their old shards), between ``rehome`` chunks with
    band-crossing reports landing in between, and after."""
    service = make_service(shards=3)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    populate_skewed(service, 120, seed=5, oracle=oracle)
    rng = random.Random(5)
    layouts = [(0.3, 0.8), (0.6, 1.2)]
    moved = 0
    t0 = 0.0
    for round_no in range(4):
        service.set_bands(layouts[round_no % 2])
        pending = displaced(service)
        check_against_oracle(service, oracle, rng)  # re-cut, none moved
        for begin in range(0, len(pending), 6):
            moved += len(service.rehome(pending[begin:begin + 6]))
            t0 += 0.01
            oid = rng.randrange(120)
            y0, v, _ = skewed_motion(rng)
            service.report(oid, y0, v, t0)
            oracle.report(oid, y0, v, t0)
            if begin % 18 == 0:
                check_against_oracle(service, oracle, rng)  # mid-rehome
        check_against_oracle(service, oracle, rng)  # every move done
        assert displaced(service) == []
    assert moved > 0
    assert len(service) == 120
    populations = service.shard_populations()
    for oid in range(120):
        holders = [s for s, pop in enumerate(populations) if oid in pop]
        assert holders == [service.shard_of(oid)]


@pytest.mark.chaos
def test_a_rebalance_racing_a_writer_loses_no_acknowledged_report(
    tmp_path, monkeypatch
):
    """Two threads report random objects of their own halves — some
    crossing bands — while forced rebalances run in small ``rehome``
    chunks, with a short thread switch interval.  Each rehome reads a
    motion under the locks it applies under, so no report is
    overwritten by the motion it replaced: afterwards the catalog holds
    each object's last acknowledged motion, every object sits on
    exactly its owner's group, and a cold restore agrees with both."""
    monkeypatch.setattr(rebalance, "_REHOME_CHUNK", 4)

    def build():
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
            router="velocity", wal_dir=str(tmp_path), wal_fsync="never",
        )

    service = build()
    populate_skewed(service, 300, seed=21)
    acked = service.motion_snapshot()
    controller = RebalanceController(service)
    done, started = threading.Event(), threading.Event()
    failures = []

    def writer(half):
        rng = random.Random(22 + half)
        t0 = 0.0
        try:
            while not done.is_set():
                t0 += 0.01
                oid = 2 * rng.randrange(150) + half
                y0, v, _ = skewed_motion(rng)
                service.report(oid, y0, v, t0)
                acked[oid] = LinearMotion1D(y0, v, t0)
                started.set()
        except Exception as exc:  # surfaced below
            failures.append(exc)
            started.set()

    threads = [threading.Thread(target=writer, args=(h,)) for h in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    migrated = 0
    try:
        for thread in threads:
            thread.start()
        assert started.wait(10.0)
        even = service.router.band_edges()
        for run in range(5):
            if run:
                service.set_bands(even)  # displace the population again
            migrated += controller.rebalance_once(force=True).migrated
    finally:
        done.set()
        for thread in threads:
            thread.join(30.0)
        sys.setswitchinterval(interval)
    assert not failures
    assert not any(thread.is_alive() for thread in threads)
    assert migrated > 0
    assert service.motion_snapshot() == acked

    def placement(svc):
        populations = svc.shard_populations()
        owners = {oid: svc.shard_of(oid) for oid in acked}
        for oid, owner in owners.items():
            holders = [s for s, pop in enumerate(populations) if oid in pop]
            assert holders == sorted(svc.replica_group(owner))
        return owners

    owners = placement(service)
    service.close()
    restored = build()
    restored.restore_from_disk()
    try:
        assert restored.motion_snapshot() == acked
        assert placement(restored) == owners
    finally:
        restored.close()


# -- live repartitioning mid-soak -------------------------------------------------


@pytest.mark.soak
def test_adversarial_soak_with_rebalances_converges():
    report = run_soak(SoakConfig(
        scenario="adversarial",
        n=300,
        ticks=6,
        shards=4,
        replication=2,
        router="velocity",
        rebalances=2,
        subscriptions=4,
        crashes=0,
        seed=7,
    ))
    assert report.ok, report.divergence_labels
    stats = report.rebalance
    assert stats["runs"] == 2
    assert stats["migrated"] > 0
    assert stats["skew_final"] * 2 <= stats["skew_initial"]
