"""Stateful differential test: delta streams vs the naive oracle.

A seeded random program interleaves register/report/deregister with
clock advances against 50+ live subscriptions and checks, at every
tick, the three-way agreement the subscription layer promises:

    naive one-shot re-evaluation
        == the manager's incremental result set
        == the initial result replayed through the emitted deltas

Subscriptions are checked against the *service's own* one-shot
queries (exercising the index path).

Coverage: 3 seeds x shard counts {1, 2, 4, 7}, mirroring the service
differential suite.
"""

import random

import pytest

from repro.service import ShardedMotionService, SubscriptionManager, replay_deltas

pytestmark = pytest.mark.subscription

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

STEPS = 120
ADVANCE_EVERY = 8
BAND_SUBS = 50


def random_motion(rng, now):
    speed = rng.uniform(V_MIN, V_MAX)
    direction = 1 if rng.random() < 0.5 else -1
    return (
        rng.uniform(0.0, Y_MAX),
        direction * speed,
        now + rng.uniform(0.0, 0.5),
    )


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
@pytest.mark.parametrize("seed", [7, 23, 61])
def test_delta_streams_replay_to_naive_oracle(shards, seed):
    rng = random.Random(seed * 1009 + shards)
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)

    next_oid = 0
    now = 0.0
    for _ in range(40):
        y0, v, t0 = random_motion(rng, 0.0)
        service.register(next_oid, y0, v, 0.0)
        next_oid += 1
    registered = set(service.motion_snapshot())  # the test's own oid set

    manager = SubscriptionManager(service)
    subs = {}  # sid -> ("snapshot"|"within", params)
    for i in range(BAND_SUBS):
        y1 = rng.uniform(0.0, Y_MAX * 0.85)
        y2 = y1 + rng.uniform(0.05, 0.15) * Y_MAX
        if i % 2 == 0:
            subs[manager.subscribe_snapshot(y1, y2)] = (
                "snapshot", (y1, y2)
            )
        else:
            h = rng.uniform(2.0, 10.0)
            subs[manager.subscribe_within(y1, y2, h)] = (
                "within", (y1, y2, h)
            )
    assert len(subs) == BAND_SUBS >= 50

    replayed = {sid: set(manager.result(sid)) for sid in subs}

    def check_all_subscriptions():
        for sid, (kind, params) in subs.items():
            replayed[sid] = replay_deltas(
                replayed[sid], manager.drain_deltas(sid)
            )
            if kind == "snapshot":
                y1, y2 = params
                naive = service.snapshot_at(y1, y2, now)
            else:
                y1, y2, h = params
                naive = service.within(y1, y2, now, now + h)
            incremental = manager.result(sid)
            assert incremental == naive, (sid, kind, params, now)
            assert replayed[sid] == naive, (sid, kind, params, now)

    for step in range(STEPS):
        roll = rng.random()
        live = sorted(registered)
        if roll < 0.55 and live:
            oid = rng.choice(live)
            y0, v, t0 = random_motion(rng, now)
            service.report(oid, y0, v, t0)
        elif roll < 0.8 or len(live) < 15:
            y0, v, t0 = random_motion(rng, now)
            service.register(next_oid, y0, v, t0)
            registered.add(next_oid)
            next_oid += 1
        else:
            oid = rng.choice(live)
            service.deregister(oid)
            registered.remove(oid)
        if step % ADVANCE_EVERY == ADVANCE_EVERY - 1:
            now += rng.uniform(0.5, 3.0)
            manager.advance(now)
            check_all_subscriptions()

    now += rng.uniform(0.5, 3.0)
    manager.advance(now)
    check_all_subscriptions()

    counters = manager.metrics.snapshot()["counters"]
    assert counters["subscription_anomalies"] == 0
    # One index evaluation per subscription, at subscribe time; none
    # per tick — what "incremental" means.
    assert counters["subscription_index_probes"] == len(subs)
    manager.close()
