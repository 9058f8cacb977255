"""Unit tests for continuous subscriptions (repro.service.continuous).

Crossing times here are hand-computed from the linear motion model so
every assertion pins an exact event time: an object at ``y0=100,
v=1.0`` enters ``[200, 300]`` at ``t=100`` and exits at ``t=200``.
"""

import pytest

from repro.engine import MotionDatabase
from repro.errors import InvalidQueryError, ObjectNotFoundError
from repro.service import (
    FaultTolerantMotionService,
    ShardedMotionService,
    SubscriptionManager,
    replay_deltas,
)
from repro.service.continuous import ENTER, EXIT, SubscriptionDelta

pytestmark = pytest.mark.subscription

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


def make_service(**kwargs):
    return ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3, **kwargs)


class TestBandSubscriptions:
    def test_snapshot_crossing_times(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        assert mgr.result(sid) == frozenset()
        fired = mgr.advance(150.0)
        assert [(d.time, d.kind, d.key) for d in fired] == [
            (100.0, ENTER, 1)
        ]
        assert mgr.result(sid) == {1}
        fired = mgr.advance(250.0)
        assert [(d.time, d.kind, d.key) for d in fired] == [(200.0, EXIT, 1)]
        assert mgr.result(sid) == frozenset()

    def test_within_stretches_left_by_horizon(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_within(200.0, 300.0, horizon=50.0)
        # Visible from t=50 (window [50, 100] first touches the band)
        # until t=200 (the crossing window's right edge).
        assert [d.time for d in mgr.advance(60.0)] == [50.0]
        assert mgr.result(sid) == {1}
        assert [d.time for d in mgr.advance(300.0)] == [200.0]
        assert mgr.result(sid) == frozenset()

    def test_initial_membership_counts_objects_already_inside(self):
        svc = make_service()
        svc.register(1, 250.0, 1.0, 0.0)  # inside [200, 300] right now
        svc.register(2, 0.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        assert mgr.result(sid) == {1}
        # No delta for the initial membership: deltas are changes.
        assert mgr.drain_deltas(sid) == []

    def test_inclusive_boundaries_enter_at_exit_after(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        mgr.advance(100.0)  # exactly the entry crossing: inclusive
        assert mgr.result(sid) == {1}
        mgr.advance(200.0)  # exactly the exit crossing: still inside
        assert mgr.result(sid) == {1}
        assert mgr.reevaluate(sid) == {1}
        mgr.advance(200.0000001)
        assert mgr.result(sid) == frozenset()

    def test_stationary_object_never_schedules_events(self):
        svc = make_service()
        svc.register(1, 250.0, 0.0, 0.0)  # parked inside the band
        svc.register(2, 500.0, 0.0, 0.0)  # parked outside
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        assert mgr.result(sid) == {1}
        assert mgr.stats()["heap_events"] == 0
        assert mgr.advance(1000.0) == []
        assert mgr.result(sid) == {1}


class TestUpdatesInvalidate:
    def test_report_cancels_scheduled_entry(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        mgr.advance(50.0)
        svc.report(1, 100.0, -1.0, 50.0)  # turn around before entering
        assert mgr.advance(150.0) == []  # superseded event is inert
        assert mgr.result(sid) == frozenset()
        counters = mgr.metrics.snapshot()["counters"]
        assert counters["subscription_events_stale"] >= 1
        assert counters["subscription_invalidations"] >= 1

    def test_report_moving_member_out_emits_exit_now(self):
        svc = make_service()
        svc.register(1, 250.0, 0.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        mgr.advance(10.0)
        svc.report(1, 600.0, 1.0, 10.0)
        assert mgr.result(sid) == frozenset()
        deltas = mgr.drain_deltas(sid)
        assert [(d.time, d.kind, d.key) for d in deltas] == [
            (10.0, EXIT, 1)
        ]

    def test_register_and_deregister_update_results(self):
        svc = make_service()
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        svc.register(7, 250.0, 0.5, 0.0)
        assert mgr.result(sid) == {7}
        assert [d.kind for d in mgr.drain_deltas(sid)] == [ENTER]
        svc.deregister(7)
        assert mgr.result(sid) == frozenset()
        assert [d.kind for d in mgr.drain_deltas(sid)] == [EXIT]


class TestSubscribeOverlay:
    """A subscription reads the population outside the manager lock;
    the writes announced during that read must win over it."""

    @staticmethod
    def race_the_read(svc, during):
        """Make the service's next population read stale: it reads,
        then runs ``during()``, then returns what it read."""
        read = svc.motion_snapshot

        def stale_read():
            population = read()
            during()
            return population

        svc.motion_snapshot = stale_read

    @pytest.mark.parametrize("build", [
        make_service,
        lambda: FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
        ),
    ], ids=["sharded", "fault_tolerant_r2"])
    def test_writes_during_the_read_win(self, build):
        svc = build()
        svc.register(1, 100.0, 1.0, 0.0)
        svc.register(2, 150.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)

        def writes():
            svc.report(1, 150.0, 0.5, 0.0)  # moves in
            svc.deregister(2)  # leaves
            svc.register(3, 145.0, 1.0, 0.0)  # arrives inside

        self.race_the_read(svc, writes)
        sid = mgr.subscribe_snapshot(140.0, 160.0)
        assert mgr.result(sid) == mgr.reevaluate(sid) == {1, 3}
        # Folded-in writes are part of the initial set, not deltas.
        assert mgr.drain_deltas(sid) == []

    def test_cancelled_during_the_read_is_not_evaluated(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        self.race_the_read(
            svc, lambda: mgr.cancel(mgr.subscription_ids()[-1])
        )
        sid = mgr.subscribe_snapshot(140.0, 160.0)
        with pytest.raises(ObjectNotFoundError):
            mgr.result(sid)
        assert mgr.stats()["heap_events"] == 0


class TestLifecycleAndErrors:
    def test_advance_backwards_rejected(self):
        svc = make_service()
        mgr = SubscriptionManager(svc)
        mgr.advance(10.0)
        with pytest.raises(InvalidQueryError):
            mgr.advance(5.0)

    def test_advance_to_nan_rejected(self):
        """A NaN target passes a ``t < now`` check; it must not fire
        every scheduled event and poison the clock."""
        svc = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        svc.register(1, 100.0, 1.0, 0.0)  # inside [140, 160] on [40, 60]
        svc.register(2, 500.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(140.0, 160.0)
        with pytest.raises(InvalidQueryError):
            mgr.advance(float("nan"))
        assert mgr.now == 0.0
        mgr.advance(45.0)
        assert mgr.result(sid) == mgr.reevaluate(sid) == {1}

    def test_bad_parameters_rejected(self):
        mgr = SubscriptionManager(make_service())
        with pytest.raises(InvalidQueryError):
            mgr.subscribe_snapshot(300.0, 200.0)
        with pytest.raises(InvalidQueryError):
            mgr.subscribe_within(0.0, 100.0, horizon=-1.0)

    def test_unknown_subscription_rejected(self):
        mgr = SubscriptionManager(make_service())
        with pytest.raises(ObjectNotFoundError):
            mgr.result(99)
        with pytest.raises(ObjectNotFoundError):
            mgr.drain_deltas(99)
        with pytest.raises(ObjectNotFoundError):
            mgr.cancel(99)

    def test_cancel_returns_pending_deltas(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        mgr.advance(150.0)
        pending = mgr.cancel(sid)
        assert [(d.kind, d.key) for d in pending] == [(ENTER, 1)]
        with pytest.raises(ObjectNotFoundError):
            mgr.result(sid)
        # Heap entries of the cancelled subscription are inert.
        assert mgr.advance(500.0) == []

    def test_close_detaches_from_service(self):
        svc = make_service()
        svc.register(1, 250.0, 0.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        mgr.close()
        svc.report(1, 600.0, 1.0, 0.0)  # no longer observed
        assert mgr.result(sid) == {1}
        mgr.close()  # idempotent

    def test_works_against_plain_motion_database(self):
        db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        db.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(db)
        sid = mgr.subscribe_snapshot(200.0, 300.0)
        db.register(2, 250.0, 0.0, 0.0)
        assert mgr.result(sid) == {2}
        assert [d.time for d in mgr.advance(150.0)] == [100.0]
        assert mgr.result(sid) == {1, 2}
        assert mgr.reevaluate(sid) == {1, 2}

    def test_describe_and_stats(self):
        svc = make_service()
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_within(0.0, 100.0, horizon=5.0)
        view = mgr.subscription(sid)
        assert view["kind"] == "within"
        assert view["params"] == {"y1": 0.0, "y2": 100.0, "horizon": 5.0}
        stats = mgr.stats()
        assert stats["subscriptions"] == 1
        assert stats["by_kind"] == {"within": 1}

    def test_counters_surface_in_service_stats(self):
        svc = make_service()
        svc.register(1, 100.0, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        mgr.subscribe_snapshot(200.0, 300.0)
        mgr.advance(150.0)
        counters = svc.service_stats()["metrics"]["counters"]
        assert counters["subscription_index_probes"] == 1
        assert counters["subscription_events_fired"] == 1
        assert counters["subscription_deltas_emitted"] == 1


class TestReplayDeltas:
    def test_replays_to_final_set(self):
        deltas = [
            SubscriptionDelta(1.0, ENTER, 1, 1),
            SubscriptionDelta(2.0, ENTER, 2, 1),
            SubscriptionDelta(3.0, EXIT, 1, 1),
        ]
        assert replay_deltas(set(), deltas) == {2}

    def test_double_enter_rejected(self):
        with pytest.raises(ValueError, match="double enter"):
            replay_deltas({1}, [SubscriptionDelta(1.0, ENTER, 1, 1)])

    def test_exit_without_enter_rejected(self):
        with pytest.raises(ValueError, match="exit without enter"):
            replay_deltas(set(), [SubscriptionDelta(1.0, EXIT, 1, 1)])


class TestDegradation:
    def test_dead_shard_marks_subscriptions_stale_not_raising(self):
        svc = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=1
        )
        for oid in range(12):
            svc.register(oid, 50.0 * oid, 1.0, 0.0)
        mgr = SubscriptionManager(svc)
        sid = mgr.subscribe_snapshot(0.0, 1000.0)
        assert not mgr.is_stale(sid)
        svc.kill_shard(1)
        mgr.advance(5.0)  # degrades, never raises
        assert mgr.is_stale(sid)
        # The incremental result still reflects every acknowledged
        # write, even though one replica is unreachable.
        assert mgr.result(sid) == set(range(12))
        svc.recover_shard(1)
        mgr.advance(6.0)
        assert not mgr.is_stale(sid)
        assert mgr.reevaluate(sid) == mgr.result(sid)
