"""Chaos differential tests for :class:`FaultTolerantMotionService`.

The acceptance criteria of the fault-tolerance work, verified end to
end:

* with seeded fault injection (transient errors, latency spikes, a
  mid-trace crash) and ``replication_factor=2``, the full query menu
  is *identical* to a faultless single :class:`MotionDatabase`;
* with ``replication_factor=1`` and a dead shard, queries degrade to
  :class:`PartialResult` (naming the unavailable shard) instead of
  raising, and emit :class:`DegradedResultWarning`;
* a recovered shard is byte-identical to its committed pre-crash
  state, and catalog reconciliation catches it up with writes that
  landed on surviving replicas while it was down.
"""

import random
import warnings

import pytest

from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    ObjectNotFoundError,
    ShardUnavailableError,
)
from repro.service import (
    FaultInjector,
    FaultSpec,
    FaultTolerantMotionService,
    PartialResult,
    RetryPolicy,
)
from repro.workloads.serialization import population_to_json

from .test_service_differential import drive, full_menu_check

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = pytest.mark.chaos


def fast_retry() -> RetryPolicy:
    """Deterministic retries with no real sleeping."""
    return RetryPolicy(attempts=5, backoff_s=0.001, sleep=lambda s: None)


def make_service(shards=4, replication=2, injector=None, **kwargs):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        fault_injector=injector,
        retry=fast_retry(),
        checkpoint_every=16,
        **kwargs,
    )


def seed_population(service, oracle=None, n=60, seed=101):
    rng = random.Random(seed)
    for oid in range(n):
        y0 = rng.uniform(0.0, Y_MAX)
        v = rng.uniform(V_MIN, V_MAX) * rng.choice((-1.0, 1.0))
        service.register(oid, y0, v, 0.0)
        if oracle is not None:
            oracle.register(oid, y0, v, 0.0)
    return rng


@pytest.mark.parametrize("seed, fsync", [
    pytest.param(13, None, id="13"),
    pytest.param(29, None, id="29"),
    pytest.param(13, "always", id="13-file-always"),
    pytest.param(29, "batch:4", id="29-file-batch:4"),
])
def test_chaos_r2_matches_faultless_single_database(seed, fsync, tmp_path):
    """Replicated service under injected faults ≡ faultless oracle.

    The injector fires transient errors and latency spikes everywhere
    plus one crash on a victim shard mid-trace; ``replication=2``
    means every answer must still come back complete and identical.
    Down shards are recovered at every differential checkpoint, so
    the crash is also exercised through the recovery path.  The
    ``file`` legs run the same chaos over the on-disk WAL backend.
    """
    durable = (
        {} if fsync is None
        else {"wal_dir": str(tmp_path), "wal_fsync": fsync}
    )
    victim = seed % 4
    injector = FaultInjector(
        seed=seed,
        default=FaultSpec(
            error_rate=0.04, latency_rate=0.02, latency_s=0.0001
        ),
        per_shard={
            victim: FaultSpec(error_rate=0.04, crash_on_op=45),
        },
        sleep=lambda s: None,
    )
    single = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    service = make_service(
        shards=4, replication=2, injector=injector, **durable
    )

    def check(single_db, sharded, rng, now):
        full_menu_check(single_db, sharded, rng, now)
        for shard in sharded.down_shards():
            sharded.recover_shard(shard)

    drive(random.Random(seed), single, service, steps=150, check=check)
    # The crash actually happened and was recovered from.
    assert injector.snapshot()["injected"]["crashes"] == 1
    assert service.service_stats()["fault_tolerance"]["recoveries"] >= 1
    assert service.down_shards() == []
    # Nothing lost: the service's object set equals the oracle's.
    assert service.within(0.0, Y_MAX, single.now, single.now + 1.0) == (
        single.within(0.0, Y_MAX, single.now, single.now + 1.0)
    )
    if fsync is not None:
        stats = service.service_stats()
        backends = [
            s["wal"]["backend"] for s in stats["fault_tolerance"]["health"]
        ]
        assert all(b["kind"] == "file" for b in backends)
        assert all(b["fsync"] == fsync for b in backends)
        assert stats["metrics"]["counters"]["wal_append"] > 0
        assert stats["metrics"]["counters"]["wal_fsync"] > 0
        service.close()


def test_r1_dead_shard_degrades_queries_instead_of_raising():
    service = make_service(shards=3, replication=1)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    seed_population(service, oracle, n=45)
    victim = 0
    lost = {
        oid for oid in range(45) if service.shard_of(oid) == victim
    }
    assert lost  # 45 objects over 3 shards: the victim owns some
    service.kill_shard(victim, reason="pulled the plug")

    with pytest.warns(DegradedResultWarning):
        result = service.within(0.0, Y_MAX, 0.0, 10.0)
    assert isinstance(result, PartialResult)
    assert not result.complete
    assert result.unavailable_shards == (victim,)
    assert result.value == oracle.within(0.0, Y_MAX, 0.0, 10.0) - lost
    # PartialResult still quacks like the underlying set.
    assert len(result) == len(result.value)
    assert set(iter(result)) == result.value
    survivor = next(iter(result.value))
    assert survivor in result

    with pytest.warns(DegradedResultWarning):
        ranked = service.nearest(Y_MAX / 2, 5.0, k=6)
    assert isinstance(ranked, PartialResult)
    assert [oid for oid, _ in ranked.value] == [
        oid for oid, _ in oracle.nearest(Y_MAX / 2, 5.0, k=40)
        if oid not in lost
    ][:6]

    with pytest.warns(DegradedResultWarning):
        pairs = service.proximity_pairs(30.0, 0.0, 10.0)
    assert isinstance(pairs, PartialResult)
    expected_pairs = {
        (a, b)
        for a, b in oracle.proximity_pairs(30.0, 0.0, 10.0)
        if a not in lost and b not in lost
    }
    assert pairs.value == expected_pairs

    # Writes against the dead group do raise — there is nowhere to
    # durably apply them — and reads of those objects fail over to
    # nothing.
    casualty = next(iter(lost))
    with pytest.raises(ShardUnavailableError):
        service.report(casualty, 10.0, 1.0, 20.0)
    with pytest.raises(ShardUnavailableError):
        service.location_of(casualty, 5.0)
    # A register routed to the dead shard rolls its catalog entry
    # back, so the oid is re-registerable after recovery.
    doomed = next(
        oid for oid in range(1000, 1100)
        if service.router.route(
            oid, oracle._motions[survivor]
        ) == victim
    )
    with pytest.raises(ShardUnavailableError):
        service.register(doomed, 100.0, 1.0, 0.0)
    service.recover_shard(victim)
    service.register(doomed, 100.0, 1.0, 0.0)
    assert service.location_of(doomed, 0.0) == 100.0
    # Back to full answers, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = service.within(0.0, Y_MAX, 0.0, 10.0)
    assert full == oracle.within(0.0, Y_MAX, 0.0, 10.0) | {doomed}


def test_failover_keeps_serving_after_primary_death():
    service = make_service(shards=4, replication=2)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    seed_population(service, oracle, n=40)
    victim = service.shard_of(7)
    service.kill_shard(victim)
    # Point reads fail over to the replica; set queries stay complete.
    assert service.location_of(7, 3.0) == oracle.location_of(7, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degradation would be a bug here
        assert service.within(0.0, Y_MAX, 0.0, 8.0) == oracle.within(
            0.0, Y_MAX, 0.0, 8.0
        )
        assert service.nearest(250.0, 4.0, k=5) == oracle.nearest(
            250.0, 4.0, k=5
        )
    # Writes keep landing on the surviving replica.
    service.report(7, 300.0, 1.0, 6.0)
    oracle.report(7, 300.0, 1.0, 6.0)
    assert service.location_of(7, 8.0) == oracle.location_of(7, 8.0)


def test_recovered_shard_is_byte_identical_when_nothing_changed():
    service = make_service(shards=4, replication=2)
    rng = seed_population(service, n=50)
    for _ in range(30):  # cross some checkpoint boundaries
        oid = rng.randrange(50)
        service.report(
            oid, rng.uniform(0.0, Y_MAX), rng.uniform(V_MIN, V_MAX),
            rng.uniform(1.0, 9.0),
        )
    victim = 2
    before = population_to_json(service._shards[victim].objects())
    before_now = service._shards[victim].now
    service.kill_shard(victim, reason="crash drill")
    stats = service.recover_shard(victim)
    # No writes happened while down: pure checkpoint + WAL replay, and
    # the rebuilt shard serializes to exactly the pre-crash bytes.
    assert stats["reconciled"] == 0 and stats["dropped"] == 0
    assert population_to_json(service._shards[victim].objects()) == before
    assert service._shards[victim].now == before_now


def test_recovery_reconciles_writes_that_landed_on_survivors():
    service = make_service(shards=4, replication=2)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    rng = seed_population(service, oracle, n=48)
    victim = 1
    service.kill_shard(victim, reason="maintenance gone wrong")
    # Life goes on: updates, departures and arrivals, some of which
    # belong to groups that include the dead shard.
    for oid in range(0, 48, 3):
        y0 = rng.uniform(0.0, Y_MAX)
        v = rng.uniform(V_MIN, V_MAX)
        service.report(oid, y0, v, 12.0)
        oracle.report(oid, y0, v, 12.0)
    for oid in (5, 11):
        service.deregister(oid)
        oracle.deregister(oid)
    stats = service.recover_shard(victim)
    assert stats["reconciled"] > 0 or stats["dropped"] > 0
    # The proof the shard caught up: kill the *other* member of each
    # of its groups, leaving the recovered shard the only copy, and
    # the answers must still match the oracle exactly.
    service.kill_shard((victim + 1) % 4)
    service.kill_shard((victim - 1) % 4)
    for y1 in (0.0, 300.0, 600.0):
        got = service.within(y1, y1 + 350.0, 12.0, 25.0)
        expected = oracle.within(y1, y1 + 350.0, 12.0, 25.0)
        value = got.value if isinstance(got, PartialResult) else got
        # Objects wholly owned by the two freshly-killed groups are
        # legitimately unavailable; everything the recovered shard is
        # responsible for must be present and current.
        assert value <= expected
        for oid in value:
            assert service.location_of(oid, 20.0) == oracle.location_of(
                oid, 20.0
            )
    must_serve = {
        oid for oid in oracle._motions
        if victim in service.replica_group(service.shard_of(oid))
    }
    served = service.within(0.0, Y_MAX, 12.0, 30.0)
    value = (
        served.value if isinstance(served, PartialResult) else served
    )
    assert must_serve <= value


def test_whole_group_dead_write_raises_and_rolls_back():
    service = make_service(shards=4, replication=2)
    seed_population(service, n=20)
    service.kill_shard(0)
    service.kill_shard(1)  # group of primary 0 is {0, 1}: fully dead
    doomed = next(
        oid for oid in range(2000, 2100)
        if service.router.route(
            oid, service._catalog_motion[0]
        ) == 0
    )
    with pytest.raises(ShardUnavailableError):
        service.register(doomed, 50.0, 1.0, 0.0)
    with pytest.raises(ObjectNotFoundError):
        service.location_of(doomed, 0.0)  # rollback left no catalog entry
    for shard in service.down_shards():
        service.recover_shard(shard)
    service.register(doomed, 50.0, 1.0, 0.0)
    assert service.location_of(doomed, 0.0) == 50.0


def test_replication_factor_validation_and_stats():
    with pytest.raises(ValueError):
        make_service(shards=2, replication=3)
    service = make_service(shards=3, replication=2)
    assert service.replica_group(2) == [2, 0]
    ft = service.service_stats()["fault_tolerance"]
    assert ft["replication_factor"] == 2
    assert ft["down_shards"] == []
    assert [h["status"] for h in ft["health"]] == ["up"] * 3
    with pytest.raises(ValueError):
        service.recover_shard(0)  # not down
