"""Crash-safe rebalancing: the crash-at-every-point matrix.

The robustness half of the rebalancing acceptance criteria.  A
rebalance move is an ordinary write set (the service's ``rehome``), so
the crash points it reaches are the durability boundaries of the logs
and checkpoints it writes (:data:`repro.storage.ALL_CRASH_POINTS`,
armed through the service's ``wal_crash_hook``).  Whatever the point and
whatever the log's fsync policy, recovery must land every object on
**exactly its owner's replica group** with a motion that was actually
acknowledged — a move cut short never forks an object.  Under
``fsync=always`` the recovered population is exactly the acknowledged
one.

Four layers of proof:

* the in-process matrix below — a :class:`CrashPointInjector` kills
  the rebalance's moves at each point × fsync policy and a fresh
  service recovers from the same directory;
* the logs of the retired two-phase migration protocol, as a service
  of that design left them when it died at each of its four crash
  points, still restore — their ``migrate_*`` records and fenced
  writes are read, never written;
* destination death mid-plan — a move no live shard of its new group
  takes is refused (``rebalance_aborted``) and the object stays put;
* the SIGKILL drill (``crashdrill --rebalance``) — real process
  death mid-rebalance-storm, no simulation in the loop.
"""

import random

import pytest

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import SimulatedCrashError
from repro.service import (
    CrashPointInjector,
    FaultTolerantMotionService,
    RebalanceConfig,
    RebalanceController,
)
from repro.storage import ALL_CRASH_POINTS
from repro.storage.crashdrill import run_drill

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = [pytest.mark.rebalance, pytest.mark.chaos,
              pytest.mark.usefixtures("short_checkpoint_floor")]

#: Every crash point a rebalance's moves reach.
REHOME_CRASH_POINTS = ALL_CRASH_POINTS

#: (point, fsync) cells of the matrix: ``log.post_fsync`` is never
#: reached under ``fsync=never``, which never syncs.
MATRIX = [
    (point, fsync)
    for fsync in ("always", "never")
    for point in REHOME_CRASH_POINTS
    if (point, fsync) != ("log.post_fsync", "never")
]


def make_service(directory, fsync, shards=3, replication=1, hook=None):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        router="velocity",
        wal_dir=str(directory),
        wal_fsync=fsync,
        wal_crash_hook=hook,
    )


def populate_skewed(service, n, seed):
    """All-slow population: the even default cut piles everything into
    band 0, so a forced rebalance always has moves to run."""
    rng = random.Random(seed)
    for oid in range(n):
        v = (V_MIN + rng.random() * 0.1) * rng.choice((-1.0, 1.0))
        service.register(oid, rng.uniform(0.0, Y_MAX), v, 0.0)


def crash_mid_rehome(directory, fsync, point, n, seed):
    """Populate, install the planned cut, then kill the rebalance's
    moves at the next arrival at ``point``; returns the acknowledged
    motions (a move never changes one)."""
    injector = CrashPointInjector()
    service = make_service(directory, fsync, hook=injector)
    populate_skewed(service, n, seed)
    expected = service.motion_snapshot()
    controller = RebalanceController(service, RebalanceConfig(min_objects=1))
    service.set_bands(controller.plan().edges)
    at = injector.hits(point) + 1
    injector.arm(point, at=at)
    with pytest.raises(SimulatedCrashError):
        controller.rebalance_once(force=True)
    assert injector.fired == [(point, at)]
    service.close()
    return expected


def assert_exactly_one_group(service):
    """Every object resides on exactly its owner's replica group — a
    crash never forks an object."""
    populations = service.shard_populations()
    for oid in service.motion_snapshot():
        holders = [
            shard for shard, pop in enumerate(populations) if oid in pop
        ]
        assert holders == sorted(
            service.replica_group(service.shard_of(oid))
        ), f"object {oid} resident on {holders}"


@pytest.mark.parametrize("point, fsync", MATRIX)
def test_crash_at_every_rebalance_point_recovers(tmp_path, point, fsync):
    expected = crash_mid_rehome(tmp_path, fsync, point, 40, seed=13)
    restored = make_service(tmp_path, fsync)
    summary = restored.restore_from_disk()
    try:
        assert_exactly_one_group(restored)
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


@pytest.mark.parametrize("point", REHOME_CRASH_POINTS)
def test_crashed_rebalance_resolves_and_queries_match(tmp_path, point):
    """After recovery the full query surface agrees with a faultless
    oracle holding the same acknowledged motions, and a fresh
    controller pass finishes the job."""
    expected = crash_mid_rehome(tmp_path, "always", point, 30, seed=17)
    restored = make_service(tmp_path, "always")
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
        report = RebalanceController(
            restored, RebalanceConfig(min_objects=1)
        ).rebalance_once(force=True)
        assert report.skew_after <= report.skew_before
        assert_exactly_one_group(restored)
        assert restored.motion_snapshot() == expected
    finally:
        restored.close()


#: The retired two-phase protocol's crash points, in protocol order:
#: copy landed / cutover decided / the destination's commit record
#: durable, the source's not / both durable.
LEGACY_POINTS = (
    "rebalance.copy_sent",
    "rebalance.pre_commit",
    "rebalance.between_commits",
    "rebalance.post_commit",
)


def append_legacy_migration(service, oid, dest, epoch, report, point=None):
    """Append to ``service``'s shard logs the records the retired
    two-phase protocol wrote to move ``oid`` (``replication_factor``
    1) to ``dest``, with ``report`` — a ``(y0, v, t0)`` the object
    took inside the double-write window — logged as a fenced write on
    both participants; stop where a crash at ``point`` left the logs
    (``None``: the whole protocol)."""
    source = service.shard_of(oid)
    motion = service.motion_snapshot()[oid]

    def log(shard, kind, **fields):
        service._nodes[shard].wal.append(kind, oid=oid, epoch=epoch,
                                         **fields)

    log(dest, "migrate_in", y0=motion.y0, v=motion.v, t0=motion.t0,
        source=source)
    log(source, "migrate_begin", dest=dest)
    y0, v, t0 = report
    for shard in (source, dest):
        service._nodes[shard].wal.append(
            "update", oid=oid, y0=y0, v=v, t0=t0, fence=epoch
        )
    if point in ("rebalance.copy_sent", "rebalance.pre_commit"):
        return
    log(dest, "migrate_commit", role="dest", source=source)
    if point == "rebalance.between_commits":
        return
    log(source, "migrate_commit", role="source", dest=dest)
    log(source, "migrate_out", dest=dest)


def legacy_log(directory, fsync, point, n, seed):
    """A directory as the retired protocol left it when it died at
    ``point`` mid-rebalance: the new cut's ``bands`` record on every
    shard, half the displaced objects moved, the next one cut short.
    Returns the acknowledged motions (its fenced reports included)."""
    service = make_service(directory, fsync)
    populate_skewed(service, n, seed)
    expected = service.motion_snapshot()
    controller = RebalanceController(service, RebalanceConfig(min_objects=1))
    service.set_bands(controller.plan().edges)
    moves = controller.moves()
    done, (cut, _, cut_dest) = moves[:len(moves) // 2], moves[len(moves) // 2]
    for epoch, (oid, _source, dest) in enumerate(done, start=1):
        report = (500.0, expected[oid].v, 1.0)
        append_legacy_migration(service, oid, dest, epoch, report)
        expected[oid] = LinearMotion1D(*report)
    report = (600.0, expected[cut].v, 2.0)
    append_legacy_migration(
        service, cut, cut_dest, len(done) + 1, report, point
    )
    expected[cut] = LinearMotion1D(*report)
    service.close()
    return expected


@pytest.mark.parametrize("fsync", ["always", "never"])
@pytest.mark.parametrize("point", LEGACY_POINTS)
def test_crash_at_every_migration_point_recovers(tmp_path, point, fsync):
    """A log the retired two-phase protocol left when it died at
    ``point`` restores: every object on exactly its owner's group
    under the restored cut, with every acknowledged write — the fenced
    ones of the double-write window included."""
    expected = legacy_log(tmp_path, fsync, point, 40, seed=13)
    restored = make_service(tmp_path, fsync)
    summary = restored.restore_from_disk()
    try:
        assert_exactly_one_group(restored)
        assert restored.motion_snapshot() == expected
        assert summary["objects"] == len(expected)
        for oid, motion in expected.items():
            assert restored.shard_of(oid) == restored.router.route(
                oid, motion
            )
    finally:
        restored.close()


@pytest.mark.parametrize("point", LEGACY_POINTS)
def test_crashed_migration_resolves_and_queries_match(tmp_path, point):
    """After restoring a log the retired protocol left mid-migration,
    the query surface agrees with a faultless oracle holding the same
    acknowledged motions, and a controller pass of this design
    finishes the job."""
    expected = legacy_log(tmp_path, "always", point, 30, seed=17)
    restored = make_service(tmp_path, "always")
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
        RebalanceController(
            restored, RebalanceConfig(min_objects=1)
        ).rebalance_once(force=True)
        assert_exactly_one_group(restored)
        assert restored.motion_snapshot() == expected
    finally:
        restored.close()


def test_destination_death_aborts_back_to_source(tmp_path):
    service = make_service(tmp_path, "always", shards=3)
    populate_skewed(service, 30, seed=19)
    controller = RebalanceController(service, RebalanceConfig(min_objects=1))
    expected = service.motion_snapshot()
    before_counts = service.primary_counts()
    # Kill the shard the skewed population would spill into: every
    # planned move targeting it is refused and its object stays put.
    service.kill_shard(2, reason="chaos: destination death")
    report = controller.rebalance_once(force=True)
    assert report.aborted > 0
    counters = service.metrics.snapshot()["counters"]
    assert counters["rebalance_aborted"] == report.aborted
    # Refused objects kept their placement and motion; nothing was
    # lost or duplicated.
    assert service.motion_snapshot() == expected
    assert sum(service.primary_counts()) == sum(before_counts)
    for oid, outcome in report.outcomes.items():
        if outcome == "aborted":
            assert service.shard_of(oid) == 0
    service.recover_shard(2)
    assert_exactly_one_group(service)
    service.close()


@pytest.mark.slow
@pytest.mark.durability
def test_sigkill_drill_with_rebalance_storm(tmp_path):
    """Real process death mid-rebalance-storm: the drill's child
    toggles band layouts and rehomes what each cut displaces, the
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
