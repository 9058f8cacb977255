"""Crash-safe migration: the crash-at-every-point matrix.

The robustness half of the rebalancing acceptance criteria.  A
two-phase migration can die at any of its four protocol boundaries
(:data:`MIGRATION_CRASH_POINTS`); whatever the point and whatever the
log's fsync policy, recovery must land every object on **exactly one
shard** (per replica group) with a motion that was actually
acknowledged — in-flight migrations complete or roll back, never
fork.  Under ``fsync=always`` the recovered population is exactly the
acknowledged one.

Three layers of proof:

* the in-process matrix below — a :class:`CrashPointInjector` kills
  the controller at each point × fsync policy and a fresh service
  recovers from the same directory;
* destination death mid-plan — the controller aborts cleanly back to
  the source (``rebalance_aborted``) instead of wedging;
* the SIGKILL drill (``crashdrill --rebalance``) — real process
  death mid-migration-storm, no simulation in the loop.
"""

import random

import pytest

from repro.engine import MotionDatabase
from repro.errors import SimulatedCrashError
from repro.service import (
    MIGRATION_CRASH_POINTS,
    CrashPointInjector,
    FaultTolerantMotionService,
    RebalanceConfig,
    RebalanceController,
    RetryPolicy,
)
from repro.storage.crashdrill import run_drill

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = [pytest.mark.rebalance, pytest.mark.chaos,
              pytest.mark.usefixtures("short_checkpoint_floor")]


def fast_retry() -> RetryPolicy:
    return RetryPolicy(attempts=3, backoff_s=0.001, sleep=lambda s: None)


def make_service(directory, fsync, shards=3, replication=1):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        router="velocity",
        retry=fast_retry(),
        wal_dir=str(directory),
        wal_fsync=fsync,
    )


def populate_skewed(service, n, seed):
    """All-slow population: the even default cut piles everything into
    band 0, so a forced rebalance always has migrations to run."""
    rng = random.Random(seed)
    for oid in range(n):
        v = (V_MIN + rng.random() * 0.1) * rng.choice((-1.0, 1.0))
        service.register(oid, rng.uniform(0.0, Y_MAX), v, 0.0)


def assert_exactly_one_shard(service):
    """Every object resides on exactly its owner's replica group and
    no migration is left open — a crash never forks ownership."""
    populations = service.shard_populations()
    for oid in service.motion_snapshot():
        holders = [
            shard for shard, pop in enumerate(populations) if oid in pop
        ]
        assert holders == sorted(
            service.replica_group(service.shard_of(oid))
        ), f"object {oid} resident on {holders}"
        assert service.migration_of(oid) is None


@pytest.mark.parametrize("fsync", ["always", "never"])
@pytest.mark.parametrize("point", MIGRATION_CRASH_POINTS)
def test_crash_at_every_migration_point_recovers(tmp_path, point, fsync):
    service = make_service(tmp_path, fsync)
    populate_skewed(service, 40, seed=13)
    # Migrations never change acknowledged motion, so this snapshot is
    # the expected answer no matter where the crash lands.
    expected = service.motion_snapshot()

    injector = CrashPointInjector().arm(point)
    controller = RebalanceController(
        service,
        RebalanceConfig(min_objects=1),
        retry=fast_retry(),
        crash_hook=injector,
    )
    with pytest.raises(SimulatedCrashError):
        controller.rebalance_once(force=True)
    assert injector.fired == [(point, 1)]
    service.close()

    restored = make_service(tmp_path, fsync)
    summary = restored.restore_from_disk()
    try:
        assert_exactly_one_shard(restored)
        recovered = restored.motion_snapshot()
        if fsync == "always":
            # Zero loss: every acknowledged update survived, verbatim.
            assert recovered == expected
            assert summary["objects"] == len(expected)
        else:
            # Weaker policies may drop a committed tail, but can never
            # invent state or fork an object.
            assert set(recovered) <= set(expected)
            for oid, motion in recovered.items():
                assert motion == expected[oid]
    finally:
        restored.close()


@pytest.mark.parametrize("point", MIGRATION_CRASH_POINTS)
def test_crashed_migration_resolves_and_queries_match(tmp_path, point):
    """After recovery the full query surface agrees with a faultless
    oracle holding the same acknowledged motions."""
    service = make_service(tmp_path / point.replace(".", "-"), "always")
    populate_skewed(service, 30, seed=17)
    expected = service.motion_snapshot()
    injector = CrashPointInjector().arm(point)
    controller = RebalanceController(
        service, RebalanceConfig(min_objects=1),
        retry=fast_retry(), crash_hook=injector,
    )
    with pytest.raises(SimulatedCrashError):
        controller.rebalance_once(force=True)
    service.close()

    restored = make_service(tmp_path / point.replace(".", "-"), "always")
    restored.restore_from_disk()
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
    for oid, motion in sorted(expected.items()):
        oracle.register(oid, motion.y0, motion.v, motion.t0)
    try:
        now = restored.now
        assert restored.within(0.0, Y_MAX, 0.0, now + 10.0) == oracle.within(
            0.0, Y_MAX, 0.0, now + 10.0
        )
        assert restored.nearest(Y_MAX / 2, now + 1.0, k=5) == oracle.nearest(
            Y_MAX / 2, now + 1.0, k=5
        )
        # The crashed run left a half-balanced catalog behind; a fresh
        # controller pass completes the job — migrations resume, they
        # do not wedge.
        report = RebalanceController(
            restored, RebalanceConfig(min_objects=1), retry=fast_retry()
        ).rebalance_once(force=True)
        assert report.skew_after <= report.skew_before
        assert_exactly_one_shard(restored)
    finally:
        restored.close()


def test_destination_death_aborts_back_to_source(tmp_path):
    service = make_service(tmp_path, "always", shards=3)
    populate_skewed(service, 30, seed=19)
    controller = RebalanceController(
        service, RebalanceConfig(min_objects=1), retry=fast_retry()
    )
    expected = service.motion_snapshot()
    before_counts = service.primary_counts()
    # Kill the shard the skewed population would spill into: every
    # planned move targeting it must abort cleanly back to its source.
    service.kill_shard(2, reason="chaos: destination death")
    report = controller.rebalance_once(force=True)
    assert report.aborted > 0
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_aborted"] == report.aborted
    # Aborted objects kept their source placement and motion; nothing
    # was lost, duplicated, or left mid-protocol.
    assert service.motion_snapshot() == expected
    for oid in expected:
        assert service.migration_of(oid) is None
    assert sum(service.primary_counts()) == sum(before_counts)
    service.close()


@pytest.mark.slow
@pytest.mark.durability
def test_sigkill_drill_with_rebalance_storm(tmp_path):
    """Real process death mid-migration-storm: the drill's child
    toggles band layouts to keep two-phase migrations in flight, the
    parent SIGKILLs it and asserts zero loss + exactly-one-shard."""
    status = run_drill(
        directory=str(tmp_path),
        fsync="always",
        shards=2,
        objects=24,
        kill_after_acks=150,
        seed=11,
        timeout_s=120.0,
        rebalance=True,
    )
    assert status == 0
