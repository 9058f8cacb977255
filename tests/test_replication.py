"""Chaos differential tests for :class:`FaultTolerantMotionService`.

The acceptance criteria of the fault-tolerance work, verified end to
end:

* with two mid-trace shard crashes and ``replication_factor=2`` —
  a shard killed inside a read, or a shard whose log fails inside a
  write — the full query menu is *identical* to a faultless single
  :class:`MotionDatabase`, and the run replays exactly;
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

from repro.core.model import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    ObjectNotFoundError,
    ShardUnavailableError,
)
from repro.service import FaultTolerantMotionService, PartialResult
from repro.vector.ops import Nearest, SnapshotAt, Within
from repro.workloads.serialization import population_to_json

from .helpers import fail_next_log_write, kill_on_access
from .test_one_read_plan import spied
from .test_service_differential import drive, full_menu_check

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = [pytest.mark.chaos,
              pytest.mark.usefixtures("short_checkpoint_floor")]


def make_service(shards=4, replication=2, **kwargs):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
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
    pytest.param(14, None, id="14"),
    pytest.param(29, None, id="29"),
    pytest.param(13, "always", id="13-file-always"),
    pytest.param(29, "batch:4", id="29-file-batch:4"),
])
def test_chaos_r2_matches_faultless_single_database(
    seed, fsync, tmp_path, closing
):
    """Replicated service under two shard crashes ≡ faultless oracle.

    Two shards that share no replica group fail, one at the
    differential check a third of the way through the trace and one at
    the check two thirds through, each the way a production shard goes
    down.  A victim in the read cover ({0, 2}: seed 14's) is up when the
    check's first read plans and killed when its access comes, and its
    partners answer in its place.  A victim no read asks while it is up
    (seeds 13 and 29's) has its log fail on its next write — ``ENOSPC``
    from the in-memory log, a half-landed write on the ``file`` legs,
    which run the same chaos over the on-disk WAL backend — and its
    partners take the write.  ``replication=2`` means every answer must
    still come back complete and identical.  Down shards are recovered
    at every differential check, so both crashes are also exercised
    through the recovery path.  A shard is up or down, with no clock in
    between, so the same trace run twice gives the same per-shard I/O
    and the same crashes at the same checks.
    """
    victims = (seed % 4, (seed + 2) % 4)
    # drive() checks after steps 24, 49, ..., 149 and at the end.
    armed_at = {1: victims[0], 3: victims[1]}

    def run(leg):
        durable = (
            {} if fsync is None
            else {"wal_dir": str(tmp_path / leg), "wal_fsync": fsync}
        )
        single = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        service = closing(make_service(shards=4, replication=2, **durable))
        cover = service._cover(range(4), list(range(4)))
        crashes = []
        checks = [0]

        def check(single_db, sharded, rng, now):
            victim = armed_at.get(checks[0])
            if victim in cover:
                kill_on_access(sharded, victim)
            elif victim is not None:
                fail_next_log_write(sharded, victim)
            full_menu_check(single_db, sharded, rng, now)
            for shard in sharded.down_shards():
                reason = sharded.shard_status()[shard]["reason"]
                crashes.append((checks[0], shard, reason))
                sharded.recover_shard(shard)
            checks[0] += 1

        drive(random.Random(seed), single, service, steps=150, check=check)
        io = [s["io"] for s in service.service_stats()["shard_state"]]
        return single, service, crashes, io

    single, service, crashes, io = run("a")
    # Both crashes actually happened, each the planned way, and were
    # recovered from.
    assert [shard for _, shard, _ in crashes] == list(victims)
    for at, shard, reason in crashes:
        if shard in service._cover(range(4), list(range(4))):
            assert (at, reason) in {(a, "killed during a read")
                                    for a in armed_at}
        else:  # on a write before the next check
            assert at - 1 in armed_at
            assert reason.startswith("log write failed: [Errno 28]")
    assert service.service_stats()["fault_tolerance"]["recoveries"] == 2
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
    _, _, twin_crashes, twin_io = run("b")
    assert (twin_crashes, twin_io) == (crashes, io)


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
            oid, oracle.motion_of(survivor)
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


#: read → its arguments, how the service asks it, the engine method a
#: shard answers it with, and how a single database answers it.
READS = {
    "within": ((100.0, 700.0, 2.0, 9.0), "within"),
    "snapshot_at": ((100.0, 700.0, 5.0), "snapshot_at"),
    "nearest": ((400.0, 6.0, 5), "nearest"),
    "proximity_pairs": ((5.0, 1.0, 9.0), "proximity_pairs"),
    "query_batch": ((100.0, 700.0, 2.0, 9.0), "within"),
}


def read(target, name, args):
    if name == "query_batch" and not isinstance(target, MotionDatabase):
        return target.query_batch([Within(*args)])[0]
    return getattr(target, READS[name][1])(*args)


@pytest.mark.parametrize("name", READS)
@pytest.mark.parametrize("fault", ["kill", "injected"])
def test_a_refused_cover_shard_is_covered_again_by_its_partners(
    monkeypatch, fault, name
):
    """Shard 0 is in the read cover {0, 2} of a 4-shard ``r = 2``
    service.  Killed before the read, the cover of the live shards is
    {1, 3}; up when the read plans and killed when its access comes
    (as a concurrent ``kill_shard`` would leave it), it leaves the
    groups of primaries 0 ({0, 1}) and 3 ({3, 0}) dark, and shards 1
    and 3 are asked for them.  Either way the answer is complete: no
    warning, no ``PartialResult``, a single database's answer."""
    args, _ = READS[name]
    engine = "query_batch" if name == "query_batch" else READS[name][1]
    service = make_service()
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    seed_population(service, oracle)
    if fault == "kill":
        service.kill_shard(0)
        expected = [1, 3]
    else:
        kill_on_access(service, 0)
        expected = [1, 2, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, shards = spied(service, monkeypatch, engine,
                            lambda: read(service, name, args))
    assert service.down_shards() == [0]
    assert sorted(shards) == expected
    assert not isinstance(got, PartialResult)
    assert got == read(oracle, name, args)


@pytest.mark.parametrize("replication", [2, 3])
@pytest.mark.parametrize("shards", [3, 5, 7])
def test_overlapping_covers_match_a_single_database(shards, replication):
    """At these shard counts the cover holds two members of some group
    (5 shards at ``r = 2`` read {0, 2, 3}), so one object comes from two
    shards: its copies collapse, and every verb and batch answers as a
    single database does."""
    service = make_service(shards=shards, replication=replication)
    assert len(service._cover(range(shards), list(range(shards)))) < shards

    def check(single, sharded, rng, now):
        full_menu_check(single, sharded, rng, now)
        ops = [Within(0.0, Y_MAX, now, now + 9.0),
               SnapshotAt(200.0, 600.0, now + 3.0), Nearest(500.0, now, 6)]
        assert sharded.query_batch(ops) == [
            single.within(0.0, Y_MAX, now, now + 9.0),
            single.snapshot_at(200.0, 600.0, now + 3.0),
            single.nearest(500.0, now, 6),
        ]

    drive(random.Random(shards * 10 + replication),
          MotionDatabase(Y_MAX, V_MIN, V_MAX), service, steps=120,
          check=check)


def test_the_cache_keeps_only_answers_every_group_gave():
    """A batch whose cover shard is killed between its plan and its
    read is covered again and complete, but not cached: the kill
    overlapped the read.  Run again once the shard is back, it is
    cached.  One whose kills darken a group — shard 0 on its read,
    then shard 1 on the re-cover — returns a ``PartialResult`` and
    caches nothing."""
    op = Within(100.0, 700.0, 2.0, 9.0)
    oracle = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    seed_population(oracle)
    expected = oracle.within(100.0, 700.0, 2.0, 9.0)

    service = make_service()
    seed_population(service)
    kill_on_access(service, 0)
    assert service.query_batch([op]) == [expected]
    assert service.down_shards() == [0]
    assert service.query_cache.get(op) == (False, None)
    # While a shard is down a batch neither reads nor writes the cache.
    assert service.query_batch([op]) == [expected]
    assert service.query_cache.get(op) == (False, None)
    service.recover_shard(0)
    assert service.query_batch([op]) == [expected]
    assert service.query_cache.get(op) == (True, expected)

    service = make_service()
    seed_population(service)
    kill_on_access(service, 0, 1)
    with pytest.warns(DegradedResultWarning):
        got, = service.query_batch([op])
    assert service.down_shards() == [0, 1]
    assert isinstance(got, PartialResult)
    assert got.unavailable_shards == (0,)
    assert service.query_cache.get(op) == (False, None)


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
        oid for oid in oracle.motion_snapshot()
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
        if service.router.route(oid, LinearMotion1D(50.0, 1.0, 0.0)) == 0
    )
    with pytest.raises(ShardUnavailableError):
        service.register(doomed, 50.0, 1.0, 0.0)
    with pytest.raises(ObjectNotFoundError):
        service.location_of(doomed, 0.0)  # rollback left no catalog entry
    for shard in service.down_shards():
        service.recover_shard(shard)
    service.register(doomed, 50.0, 1.0, 0.0)
    assert service.location_of(doomed, 0.0) == 50.0


def test_uncovered_reads_the_owner_map_only_for_a_dark_group():
    """Degradation is decided from the topology first: while every
    replica group has a member that answered, the owner map is not
    read at all.  A dark group that owns objects is reported; one that
    owns none is no loss."""
    service = make_service(shards=4, replication=2)
    seed_population(service, n=40)

    class Spy(dict):
        reads = 0

        def values(self):
            Spy.reads += 1
            return super().values()

    owner = service._owner
    service._owner = Spy(owner)
    assert service._uncovered({0, 1, 2, 3}) == ()
    assert service._uncovered({0, 2}) == ()  # every group keeps one
    assert Spy.reads == 0
    # Groups are {p, p + 1}: with 1 and 2 dark, primary 1's is gone,
    # and with only 0 answering, primaries 1 and 2's.
    assert service._uncovered({0, 3}) == (1,)
    assert service._uncovered({0}) == (1, 2)
    assert Spy.reads == 2
    service._owner = owner
    for oid in range(40):
        if service.shard_of(oid) == 1:
            service.deregister(oid)
    assert service._uncovered({0, 3}) == ()
    assert service._uncovered({0}) == (2,)


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
