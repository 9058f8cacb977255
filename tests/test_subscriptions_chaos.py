"""Chaos: shard crashes mid-subscription, WAL recovery, reconciliation.

Extends the ``test_failure_injection`` pattern to standing queries.
The invariant under test: the subscription layer listens to
*acknowledged* writes only, and recovery (checkpoint + WAL replay +
catalog reconciliation) never changes acknowledged state — so after a
crash and recovery the incremental result sets, the replayed delta
streams, and the naive one-shot oracle must still agree exactly.
"""

import random

import pytest

from repro.errors import InvalidMotionError, ObjectNotFoundError, ShardUnavailableError
from repro.service import (
    FaultTolerantMotionService,
    PartialResult,
    SubscriptionManager,
    replay_deltas,
)

from .helpers import fail_next_log_write

pytestmark = [pytest.mark.subscription, pytest.mark.chaos,
              pytest.mark.usefixtures("short_checkpoint_floor")]

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
N_OBJECTS = 60
TICKS = 8
UPDATES_PER_TICK = 15


def random_motion(rng, now):
    speed = rng.uniform(V_MIN, V_MAX)
    return (
        rng.uniform(0.0, Y_MAX),
        speed if rng.random() < 0.5 else -speed,
        now + rng.uniform(0.0, 0.5),
    )


def build_subscriptions(manager, rng):
    subs = {}
    for i in range(8):
        y1 = rng.uniform(0.0, Y_MAX * 0.8)
        y2 = y1 + rng.uniform(0.05, 0.2) * Y_MAX
        if i % 2 == 0:
            subs[manager.subscribe_snapshot(y1, y2)] = ("snapshot", (y1, y2))
        else:
            h = rng.uniform(2.0, 8.0)
            subs[manager.subscribe_within(y1, y2, h)] = ("within", (y1, y2, h))
    return subs


def check_against_oracle(manager, subs, replayed, now):
    """Three-way agreement, all shards up: naive == result == replay."""
    for sid, (kind, params) in subs.items():
        replayed[sid] = replay_deltas(
            replayed[sid], manager.drain_deltas(sid)
        )
        naive = manager.reevaluate(sid)
        assert not isinstance(naive, PartialResult), sid
        result = manager.result(sid)
        assert result == naive, (sid, kind, params, now)
        assert replayed[sid] == naive, (sid, kind, params, now)


def test_injected_crash_then_wal_recovery_reconciles_with_oracle():
    """r=2: a shard's log fails mid-run (``ENOSPC``), which takes it
    down; surviving replicas keep acknowledging writes; after
    ``recover_shard`` the delta streams reconcile exactly with the
    oracle."""
    victim = 1
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2,
    )
    rng = random.Random(31)
    for oid in range(N_OBJECTS):
        y0, v, _ = random_motion(rng, 0.0)
        service.register(oid, y0, v, 0.0)
    assert service.down_shards() == []  # crash comes mid-subscription

    manager = SubscriptionManager(service)
    subs = build_subscriptions(manager, rng)
    replayed = {sid: set(manager.result(sid)) for sid in subs}

    crash_seen = False
    recovered = False
    now = 0.0
    for tick in range(TICKS):
        now += 1.0
        if tick == 2:
            fail_next_log_write(service, victim)
        for _ in range(UPDATES_PER_TICK):
            oid = rng.randrange(N_OBJECTS)
            y0, v, t0 = random_motion(rng, now)
            # Write-all-live with r=2: every write still acknowledges
            # while one shard of the group is down.
            service.report(oid, y0, v, t0)
        manager.advance(now)
        if service.down_shards():
            crash_seen = True
            # Degraded, not raising: every subscription flags stale.
            assert all(manager.is_stale(sid) for sid in subs)
            # The incremental stream keeps flowing while degraded.
            for sid in subs:
                replayed[sid] = replay_deltas(
                    replayed[sid], manager.drain_deltas(sid)
                )
                assert manager.result(sid) == replayed[sid]
            for shard in service.down_shards():
                report = service.recover_shard(shard)
                assert report["shard"] == shard
            recovered = True
            manager.advance(now)  # re-probe health: stale clears
            assert not any(manager.is_stale(sid) for sid in subs)
        check_against_oracle(manager, subs, replayed, now)
    assert crash_seen and recovered, "the fault plan never fired"
    counters = manager.metrics.snapshot()["counters"]
    assert counters["subscription_anomalies"] == 0
    manager.close()


def test_unreplicated_crash_degrades_then_reconciles():
    """r=1: writes to the dead shard are rejected (not acknowledged),
    so the subscription layer must track exactly the acknowledged
    subset — and still match the oracle after recovery."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=1,
    )
    rng = random.Random(77)
    for oid in range(N_OBJECTS):
        y0, v, _ = random_motion(rng, 0.0)
        service.register(oid, y0, v, 0.0)

    manager = SubscriptionManager(service)
    subs = build_subscriptions(manager, rng)
    replayed = {sid: set(manager.result(sid)) for sid in subs}

    victim = 2
    rejected = 0
    now = 0.0
    for tick in range(TICKS):
        now += 1.0
        if tick == 2:
            service.kill_shard(victim)
        for _ in range(UPDATES_PER_TICK):
            oid = rng.randrange(N_OBJECTS)
            y0, v, t0 = random_motion(rng, now)
            try:
                service.report(oid, y0, v, t0)
            except ShardUnavailableError:
                rejected += 1
        manager.advance(now)
        degraded = bool(service.down_shards())
        assert all(manager.is_stale(sid) == degraded for sid in subs)
        if tick == 5:
            service.recover_shard(victim)
            manager.advance(now)
            degraded = False
        for sid in subs:
            replayed[sid] = replay_deltas(
                replayed[sid], manager.drain_deltas(sid)
            )
            assert manager.result(sid) == replayed[sid]
        if not degraded:
            check_against_oracle(manager, subs, replayed, now)
    assert rejected > 0, "the dead shard never rejected a write"
    counters = manager.metrics.snapshot()["counters"]
    assert counters["subscription_anomalies"] == 0
    manager.close()


def test_rejected_operations_leave_subscriptions_untouched():
    """The atomic-failure contract lifted to standing queries: a
    rejected write emits no delta and changes no result set."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
    )
    rng = random.Random(13)
    for oid in range(20):
        y0, v, _ = random_motion(rng, 0.0)
        service.register(oid, y0, v, 0.0)
    manager = SubscriptionManager(service)
    subs = build_subscriptions(manager, rng)
    manager.advance(3.0)
    for sid in subs:
        manager.drain_deltas(sid)
    before = {sid: manager.result(sid) for sid in subs}

    with pytest.raises(InvalidMotionError):
        service.register(0, 400.0, 1.0, 3.0)  # duplicate
    with pytest.raises(InvalidMotionError):
        service.register(999, 400.0, 99.0, 3.0)  # over-speed
    with pytest.raises(ObjectNotFoundError):
        service.report(424242, 100.0, 1.0, 5.0)  # unknown
    with pytest.raises(ObjectNotFoundError):
        service.deregister(424242)

    for sid in subs:
        assert manager.result(sid) == before[sid]
        assert manager.drain_deltas(sid) == []


@pytest.mark.durability
def test_crash_mid_delivery_then_cold_restart_converges(tmp_path):
    """Shard dies mid-subscription-delivery; the whole service is then
    shut down *without recovering it* and rebuilt from disk.

    ``restore_from_disk`` elects the newest motion per object across
    replica WALs — the dead shard's log is stale, the survivor's is
    not — so the restored catalog must equal the acknowledged pre-
    shutdown catalog exactly, and a fresh subscription layer over the
    restored service must agree with its own naive oracle from the
    first advance.
    """
    from repro.core.predicates import matches_mor1
    from repro.core.queries import MOR1Query

    def build():
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2,
            wal_dir=str(tmp_path), wal_fsync="batch:4",
        )

    service = build()
    rng = random.Random(91)
    for oid in range(N_OBJECTS):
        y0, v, _ = random_motion(rng, 0.0)
        service.register(oid, y0, v, 0.0)

    manager = SubscriptionManager(service)
    subs = build_subscriptions(manager, rng)
    replayed = {sid: set(manager.result(sid)) for sid in subs}

    victim = 1
    now = 0.0
    for tick in range(6):
        now += 1.0
        for i in range(UPDATES_PER_TICK):
            if tick == 2 and i == UPDATES_PER_TICK // 2:
                # Mid-update-storm — which is mid-delivery: the
                # listeners feeding the manager run inside the write
                # path, so deltas are streaming as the shard dies.
                service.kill_shard(victim, reason="chaos mid-delivery")
            oid = rng.randrange(N_OBJECTS)
            y0, v, t0 = random_motion(rng, now)
            service.report(oid, y0, v, t0)  # r=2: always acknowledges
        manager.advance(now)
        for sid in subs:
            replayed[sid] = replay_deltas(
                replayed[sid], manager.drain_deltas(sid)
            )
            # The incremental stream stays exact while degraded.
            assert manager.result(sid) == replayed[sid]
    assert service.down_shards() == [victim]

    # Graceful shutdown with the victim still dead: its on-disk WAL is
    # a stale fork of history.
    acknowledged = service.motion_snapshot()
    manager.close()
    service.close()

    restored_service = build()
    report = restored_service.restore_from_disk()
    assert report["objects"] == len(acknowledged)
    restored = restored_service.motion_snapshot()
    assert restored.keys() == acknowledged.keys()
    for oid, motion in acknowledged.items():
        got = restored[oid]
        assert (got.y0, got.v, got.t0) == (motion.y0, motion.v, motion.t0), oid
    assert restored_service.down_shards() == []

    # A fresh subscription layer over the restored service reconciles
    # with its own naive oracle immediately.
    restored_manager = SubscriptionManager(restored_service)
    now += 1.0  # past the newest restored t0: clocks never run backwards
    restored_manager.advance(now)
    new_subs = build_subscriptions(restored_manager, random.Random(91 + 1))
    new_replayed = {
        sid: set(restored_manager.result(sid)) for sid in new_subs
    }
    for tick in range(3):
        now += 1.0
        for _ in range(UPDATES_PER_TICK):
            oid = rng.randrange(N_OBJECTS)
            y0, v, t0 = random_motion(rng, now)
            restored_service.report(oid, y0, v, t0)
        restored_manager.advance(now)
        check_against_oracle(restored_manager, new_subs, new_replayed, now)
    # And the restored catalog answers queries exactly like brute force.
    snapshot = restored_service.motion_snapshot()
    for _ in range(10):
        y1 = rng.uniform(0.0, Y_MAX * 0.8)
        y2 = y1 + rng.uniform(0.05, 0.2) * Y_MAX
        expected = {
            oid for oid, motion in snapshot.items()
            if matches_mor1(motion, MOR1Query(y1, y2, now))
        }
        assert set(restored_service.snapshot_at(y1, y2, now)) == expected
    counters = restored_manager.metrics.snapshot()["counters"]
    assert counters.get("subscription_anomalies", 0) == 0
    restored_manager.close()
    restored_service.close()
