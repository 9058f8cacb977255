"""Concurrency: subscription churn racing advance() and writes.

Eight threads — four writers on disjoint oid slices, one clock
advancer, two subscribe/cancel churners, one reader — hammer one
manager.  Afterwards the system must be exactly consistent:

* every persistent subscription's delta stream replays from its
  initial result to its final result (no lost deltas, no
  double-fires — ``replay_deltas`` raises on either);
* the final result equals a fresh one-shot query against the service;
* the ``MetricsRegistry`` delta counter equals the number of deltas
  actually delivered (drained + returned by ``cancel``), so nothing
  vanished between the manager and its observers.
"""

import random
import threading

import pytest

from repro.service import ShardedMotionService, SubscriptionManager, replay_deltas

pytestmark = pytest.mark.subscription

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

WRITERS = 4
OIDS_PER_WRITER = 20
REPORTS_PER_WRITER = 60
ADVANCES = 30
CHURNERS = 2
CHURN_ROUNDS = 15
PERSISTENT_SUBS = 12


def test_churn_racing_advance_and_writes_stays_consistent():
    rng = random.Random(4242)
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4)
    total_oids = WRITERS * OIDS_PER_WRITER
    for oid in range(total_oids):
        speed = rng.uniform(V_MIN, V_MAX)
        service.register(
            oid, rng.uniform(0.0, Y_MAX),
            speed if rng.random() < 0.5 else -speed, 0.0,
        )

    manager = SubscriptionManager(service)
    persistent = {}
    for i in range(PERSISTENT_SUBS):
        y1 = rng.uniform(0.0, Y_MAX * 0.8)
        y2 = y1 + rng.uniform(0.05, 0.2) * Y_MAX
        if i % 2 == 0:
            sid = manager.subscribe_within(y1, y2, rng.uniform(2.0, 8.0))
            persistent[sid] = ("within", (y1, y2))
        else:
            sid = manager.subscribe_snapshot(y1, y2)
            persistent[sid] = ("snapshot", (y1, y2))
    initial = {sid: set(manager.result(sid)) for sid in persistent}
    collected = {sid: [] for sid in persistent}

    errors = []
    delivered_lock = threading.Lock()
    delivered = [0]  # deltas that reached an observer

    def note_delivered(n):
        with delivered_lock:
            delivered[0] += n

    def writer(slot):
        try:
            wrng = random.Random(1000 + slot)
            oids = range(
                slot * OIDS_PER_WRITER, (slot + 1) * OIDS_PER_WRITER
            )
            for i in range(REPORTS_PER_WRITER):
                oid = wrng.choice(list(oids))
                speed = wrng.uniform(V_MIN, V_MAX)
                service.report(
                    oid,
                    wrng.uniform(0.0, Y_MAX),
                    speed if wrng.random() < 0.5 else -speed,
                    i * 0.01,
                )
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(("writer", slot, exc))

    def advancer():
        try:
            for i in range(1, ADVANCES + 1):
                fired = manager.advance(i * 0.37)
                note_delivered(0)  # fired deltas stay in the per-sub
                # logs until drained; count them at drain time only.
                del fired
        except Exception as exc:  # pragma: no cover
            errors.append(("advancer", exc))

    def churner(slot):
        try:
            crng = random.Random(2000 + slot)
            for _ in range(CHURN_ROUNDS):
                y1 = crng.uniform(0.0, Y_MAX * 0.8)
                sid = manager.subscribe_snapshot(y1, y1 + 80.0)
                manager.result(sid)
                note_delivered(len(manager.drain_deltas(sid)))
                note_delivered(len(manager.cancel(sid)))
        except Exception as exc:  # pragma: no cover
            errors.append(("churner", slot, exc))

    def reader():
        try:
            rrng = random.Random(3000)
            for _ in range(40):
                sid = rrng.choice(sorted(persistent))
                manager.result(sid)
                manager.stats()
                service.service_stats()
        except Exception as exc:  # pragma: no cover
            errors.append(("reader", exc))

    threads = (
        [threading.Thread(target=writer, args=(s,)) for s in range(WRITERS)]
        + [threading.Thread(target=advancer)]
        + [threading.Thread(target=churner, args=(s,)) for s in range(CHURNERS)]
        + [threading.Thread(target=reader)]
    )
    assert len(threads) == 8
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []

    # Quiesced: drain everything and check the three-way agreement.
    for sid, (kind, params) in persistent.items():
        drained = manager.drain_deltas(sid)
        note_delivered(len(drained))
        collected[sid].extend(drained)
        final = replay_deltas(initial[sid], collected[sid])
        result = set(manager.result(sid))
        assert final == result, (sid, kind)
        now = manager.now
        if kind == "snapshot":
            y1, y2 = params
            assert result == service.snapshot_at(y1, y2, now), sid
        else:
            y1, y2 = params
            sub = manager.subscription(sid)
            h = sub["params"]["horizon"]
            assert result == service.within(y1, y2, now, now + h), sid

    counters = manager.metrics.snapshot()["counters"]
    assert counters["subscription_anomalies"] == 0
    assert counters["subscription_deltas_emitted"] == delivered[0]
    manager.close()
