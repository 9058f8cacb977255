"""One write plan: a scalar verb is a one-op write set.

``register`` / ``report`` / ``deregister`` stage through the same
``_stage_batch`` as ``apply_batch``, holding only the shard locks their
plan names, and differ from it only at the shard: each shard applies
its sub-op through the engine's per-op verb and logs it with one
``ShardWAL.append`` under the fsync policy.  And
because both entry points share the plan, a shard whose log raises
``OSError`` mid-write is handled once for both: it goes down, the ops
only it held are refused, and the catalog, the live shards and the
result cache keep agreeing.
"""

from __future__ import annotations

import random
import threading
from collections import Counter

import pytest

from repro.core import LinearMotion1D
from repro.engine import MotionDatabase
from repro.errors import (
    DegradedResultWarning,
    InvalidMotionError,
    ShardUnavailableError,
    SimulatedCrashError,
)
from repro.service import FaultTolerantMotionService, ShardedMotionService
from repro.service.faults import CrashPointInjector
from repro.service.wal import ShardWAL
from repro.vector.ops import RegisterOp, ReportOp, Within

from .helpers import HalfWriteThenENOSPC

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66

pytestmark = pytest.mark.writebatch


def build(cls, **kwargs):
    if cls is FaultTolerantMotionService:
        kwargs.setdefault("replication_factor", 2)
        return cls(Y_MAX, V_MIN, V_MAX, shards=4, **kwargs)
    return cls(Y_MAX, V_MIN, V_MAX, shards=3, **kwargs)


def spy(monkeypatch, owner, name, calls, key=None):
    """Count calls of ``owner.name`` in ``calls`` (by ``key(args)``)."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[(name, key(args) if key else None)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "cls", [ShardedMotionService, FaultTolerantMotionService]
)
def test_a_scalar_verb_is_one_staged_write_set(monkeypatch, cls):
    """Each verb — a register, a report that stays in its group, one
    that moves to another group and a deregister — stages once, and
    applies through the engine's per-op verbs on exactly the shards the
    plan names, never through ``MotionDatabase.apply_batch``.  It plans
    twice: once to choose its shard locks, once staging under them."""
    service = build(cls, router="velocity")
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.2, 0.0) for oid in range(30)]
    ))
    calls: Counter = Counter()
    shard = service._shards.index
    for name in ("_stage_batch", "_plan_write"):
        spy(monkeypatch, ShardedMotionService, name, calls)
    for name in ("register", "report", "deregister", "apply_batch"):
        spy(monkeypatch, MotionDatabase, name, calls,
            key=lambda args: shard(args[0]))

    def group(oid):
        return set(service.replica_group(service.shard_of(oid)))

    def verb(name, *args):
        calls.clear()
        getattr(service, name)(*args)
        assert calls.pop(("_stage_batch", None)) == 1
        assert calls.pop(("_plan_write", None)) == 2
        return {key: n for key, n in calls.items()}

    assert verb("register", 100, 500.0, 0.2, 1.0) == {
        ("register", s): 1 for s in group(100)
    }
    assert verb("report", 100, 510.0, 0.21, 2.0) == {
        ("report", s): 1 for s in group(100)
    }
    old = group(100)
    moved = verb("report", 100, 520.0, 1.6, 3.0)
    new = group(100)
    assert old != new, "the fast report must cross replica groups"
    assert moved == {
        **{("report", s): 1 for s in old & new},
        **{("register", s): 1 for s in new - old},
        **{("deregister", s): 1 for s in old - new},
    }
    assert verb("deregister", 100) == {
        ("deregister", s): 1 for s in new
    }


def test_a_durable_scalar_report_appends_once_per_replica(
    monkeypatch, tmp_path
):
    """A scalar report on a replicated file-WAL service reaches
    ``MotionDatabase.report`` and ``ShardWAL.append`` once on each of
    its two replicas; the log follows its fsync policy (no explicit
    ``ShardWAL.sync``)."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
        wal_dir=str(tmp_path), wal_fsync="batch:32",
    )
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 1.0, 0.0) for oid in range(20)]
    ))
    calls: Counter = Counter()
    for owner, name in ((MotionDatabase, "report"),
                        (MotionDatabase, "apply_batch"),
                        (ShardWAL, "append"), (ShardWAL, "append_batch"),
                        (ShardWAL, "sync")):
        spy(monkeypatch, owner, name, calls)
    service.report(7, 75.0, -1.0, 1.0)
    # ShardWAL.append is a one-record append_batch.
    assert calls == {("report", None): 2, ("append", None): 2,
                     ("append_batch", None): 2}
    service.close()


def oracle_within(motions, query):
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    db.apply_batch(
        [RegisterOp(oid, m.y0, m.v, m.t0) for oid, m in motions.items()]
    )
    return db.within(query.y1, query.y2, query.t1, query.t2)


@pytest.mark.chaos
@pytest.mark.parametrize("replication", [1, 2])
@pytest.mark.parametrize("leg", ["scalar", "batch"])
def test_a_log_io_error_takes_the_shard_down(tmp_path, replication, leg):
    """Shard 1's log fails mid-write (half the bytes land, then
    ``ENOSPC``).  The shard now holds a write its log lacks, so it goes
    down; the write set goes on elsewhere.  An op no other replica took
    gets ``ShardUnavailableError`` and commits nothing.  Afterwards the
    catalog, every live shard and ``query_batch`` agree, and
    ``recover_shard`` brings shard 1 back to the catalog."""
    rng = random.Random(5)
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=replication,
        wal_dir=str(tmp_path), wal_fsync="always",
    )
    assert not any(service.apply_batch([
        RegisterOp(oid, rng.uniform(0.0, 400.0), 0.5, 0.0)
        for oid in range(40)
    ]))
    probe = Within(0.0, 500.0, 1.0, 2.0)
    assert len(service.query_batch([probe])[0]) == 40  # now cached
    log = service._nodes[1].wal.backend._log
    log._file = HalfWriteThenENOSPC(log._file)
    # Every eighth report leaves the probe's window.
    reports = [
        ReportOp(oid, 800.0 if oid % 8 == 0 else rng.uniform(0.0, 400.0),
                 -0.5, 1.0)
        for oid in range(40)
    ]
    if leg == "batch":
        outcomes = service.apply_batch(reports)
    else:
        outcomes = []
        for op in reports:
            try:
                service.report(op.oid, op.y0, op.v, op.t0)
                outcomes.append(None)
            except ShardUnavailableError as exc:
                outcomes.append(exc)

    assert service.down_shards() == [1]
    refused = {op.oid for op, o in zip(reports, outcomes) if o is not None}
    assert all(isinstance(o, ShardUnavailableError)
               for o in outcomes if o is not None)
    only_on_1 = {oid for oid in range(40)
                 if service.replica_group(service.shard_of(oid)) == [1]}
    assert refused == only_on_1
    assert bool(refused) == (replication == 1)
    catalog = service.motion_snapshot()
    for op in reports:
        motion = catalog[op.oid]
        if op.oid in refused:
            assert (motion.v, motion.t0) == (0.5, 0.0)
        else:
            assert (motion.y0, motion.v, motion.t0) == (op.y0, op.v, op.t0)

    def held_by(shard):
        return {oid: m for oid, m in catalog.items()
                if shard in service.replica_group(service.shard_of(oid))}

    for shard in (0, 2, 3):
        assert service._shards[shard].motion_snapshot() == held_by(shard)
    want = oracle_within(catalog, probe)
    if replication == 1:
        with pytest.warns(DegradedResultWarning):
            got, = service.query_batch([probe])
        assert set(got) == want - only_on_1
    else:
        assert service.query_batch([probe]) == [want]

    service.recover_shard(1)
    assert service.down_shards() == []
    assert service._shards[1].motion_snapshot() == held_by(1)
    for _ in range(2):  # fresh, then from the cache
        assert service.query_batch([probe]) == [want]
    assert service.within(0.0, 500.0, 1.0, 2.0) == want
    service.close()


@pytest.mark.chaos
@pytest.mark.parametrize("leg", ["scalar", "batch"])
def test_a_move_whose_new_group_fails_to_log_keeps_the_object(
    tmp_path, leg
):
    """A report that moves its object to another shard, where the log
    fails: the move is refused, and the old shard — which dropped its
    copy after the new one was written — no longer matches the catalog,
    so it goes down too.  Recovering both puts the object back where
    the catalog says it is, with the motion it had."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
        router="velocity", wal_dir=str(tmp_path), wal_fsync="always",
    )
    service.register(1, 100.0, 0.2, 0.0)
    service.register(2, 200.0, 0.2, 0.0)
    old = service.shard_of(1)
    new = service.router.route(1, LinearMotion1D(150.0, 1.6, 1.0))
    assert new != old
    log = service._nodes[new].wal.backend._log
    log._file = HalfWriteThenENOSPC(log._file)
    if leg == "batch":
        outcome, = service.apply_batch([ReportOp(1, 150.0, 1.6, 1.0)])
        assert isinstance(outcome, ShardUnavailableError)
    else:
        with pytest.raises(ShardUnavailableError):
            service.report(1, 150.0, 1.6, 1.0)
    assert service.down_shards() == sorted((old, new))
    assert service.shard_of(1) == old
    before = service.motion_snapshot()
    assert before[1] == LinearMotion1D(100.0, 0.2, 0.0)
    for shard in (old, new):
        service.recover_shard(shard)
    assert service._shards[old].motion_snapshot() == before
    assert 1 not in service._shards[new]
    assert service.within(90.0, 110.0, 0.0, 0.0) == {1}
    service.close()


@pytest.mark.chaos
def test_a_scalar_move_logs_the_new_copy_before_dropping_the_old(tmp_path):
    """A report that moves its object from shard 0 to a higher shard,
    and the process dies right after the first log write of the move:
    that write must be the new copy, not the old copy's delete —
    ascending shard order would drop the object from every log."""
    injector = CrashPointInjector()

    def build(hook):
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
            router="velocity", wal_dir=str(tmp_path), wal_fsync="always",
            wal_crash_hook=hook,
        )

    service = build(injector)
    service.register(1, 100.0, 0.2, 0.0)
    new = service.router.route(1, LinearMotion1D(150.0, 1.6, 1.0))
    assert service.shard_of(1) < new
    injector.arm("log.pre_fsync", at=injector.hits("log.pre_fsync") + 1)
    with pytest.raises(SimulatedCrashError):
        service.report(1, 150.0, 1.6, 1.0)
    service.close()

    restored = build(None)
    restored.restore_from_disk()
    assert restored.motion_snapshot() == {1: LinearMotion1D(150.0, 1.6, 1.0)}
    restored.close()


# -- a scalar write holds only the locks its plan names -----------------------


def blocked(monkeypatch, owner, name, when):
    """Make ``owner.name`` park its caller, for calls ``when(args)``
    picks, until the returned ``release`` is set; ``entered`` is set
    once a caller is parked."""
    real = getattr(owner, name)
    entered, release = threading.Event(), threading.Event()

    def parked(*args, **kwargs):
        if when(args):
            entered.set()
            assert release.wait(10.0), "never released"
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, parked)
    return entered, release


def run(fn, *args):
    """``fn(*args)`` on a fresh thread; the thread, and a list that
    receives its exception (or ``None``)."""
    result = []

    def body():
        try:
            fn(*args)
        except Exception as exc:  # handed to the test
            result.append(exc)
        else:
            result.append(None)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, result


def test_writers_of_different_groups_overlap(monkeypatch):
    """While a scalar report sits in its shard's log append (an fsync
    releases the interpreter there), a report to another replica group
    completes: each holds only its own group's locks."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
    )
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.5, 0.0) for oid in range(40)]
    ))
    a = 0
    b = next(oid for oid in range(40)
             if service.shard_of(oid) != service.shard_of(a))
    slow = service._nodes[service.shard_of(a)].wal
    entered, release = blocked(
        monkeypatch, ShardWAL, "append", lambda args: args[0] is slow
    )
    first, first_result = run(service.report, a, 5.0, 0.5, 1.0)
    assert entered.wait(10.0)
    second, second_result = run(service.report, b, 7.0, 0.5, 1.0)
    second.join(10.0)
    try:
        assert second_result == [None], "the other group's write waited"
        assert first.is_alive()
    finally:
        release.set()
        first.join(10.0)
    assert first_result == [None]
    snapshot = service.motion_snapshot()
    assert (snapshot[a].y0, snapshot[b].y0) == (5.0, 7.0)


def test_concurrent_registers_of_one_oid_fork_nothing(monkeypatch):
    """Two registers of one new oid whose motions route to different
    shards (velocity router): the second waits for the first instead of
    planning against the same empty claim, and is refused as a
    duplicate.  The object lives on one shard."""
    service = ShardedMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, router="velocity"
    )
    slow, fast = (LinearMotion1D(100.0, 0.2, 0.0),
                  LinearMotion1D(100.0, 1.6, 0.0))
    home = service.router.route(1, slow)
    assert home != service.router.route(1, fast)
    entered, release = blocked(
        monkeypatch, MotionDatabase, "register",
        lambda args: args[0] is service._shards[home],
    )
    first, first_result = run(service.register, 1, slow.y0, slow.v, slow.t0)
    assert entered.wait(10.0)
    second, second_result = run(service.register, 1, fast.y0, fast.v, fast.t0)
    second.join(0.3)
    assert second.is_alive(), "the second register did not wait"
    release.set()
    first.join(10.0)
    second.join(10.0)
    assert first_result == [None]
    assert isinstance(second_result[0], InvalidMotionError)
    assert [1 in db for db in service._shards] == [
        shard == home for shard in range(4)
    ]


def recut_before_the_locks(monkeypatch, service, then=None):
    """On the next ``_holding`` call only, re-cut the bands so speed
    0.5 routes to the last shard (its group disjoint from the group of
    the even cut's band for 0.5), then run ``then``."""
    real, armed = service._holding, [True]

    def holding(shards):
        if armed:
            armed.clear()
            service.set_bands((0.1, 0.2, 0.3)[:service.shard_count - 1])
            if then is not None:
                then()
        return real(shards)

    monkeypatch.setattr(service, "_holding", holding)


@pytest.mark.parametrize(
    "cls", [ShardedMotionService, FaultTolerantMotionService]
)
def test_a_claim_that_moves_before_the_locks_restages_under_all(
    monkeypatch, cls
):
    """A rehome moves the object between a scalar report choosing its
    locks and holding them: staging finds the plan now names the new
    group, and stages once more under every lock — the report lands on
    the group the object moved to."""
    service = build(cls, router="velocity")
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.5, 0.0) for oid in range(30)]
    ))
    oid = 4
    source = service.shard_of(oid)
    recut_before_the_locks(
        monkeypatch, service, then=lambda: service.rehome([oid])
    )
    calls: Counter = Counter()
    spy(monkeypatch, ShardedMotionService, "_stage_batch", calls)
    service.report(oid, 55.0, -0.5, 1.0)
    # The rehome's one staging, then the report's two.
    assert calls == {("_stage_batch", None): 3}
    dest = service.shard_of(oid)
    assert set(service.replica_group(dest)).isdisjoint(
        service.replica_group(source)
    )
    want = LinearMotion1D(55.0, -0.5, 1.0)
    assert [
        db.motion_of(oid) if oid in db else None for db in service._shards
    ] == [
        want if shard in service.replica_group(dest) else None
        for shard in range(service.shard_count)
    ]
    assert service.within(54.0, 56.0, 1.0, 1.0) == {oid}


@pytest.mark.parametrize(
    "cls", [ShardedMotionService, FaultTolerantMotionService]
)
def test_a_recut_before_the_locks_places_by_the_new_cut(monkeypatch, cls):
    """A band re-cut lands between a scalar report choosing its locks
    and holding them: staging routes the op again under the locks, so
    the report places its object by the new cut, as a batch (routed
    under its locks) always did.  Placed by the old cut, it would sit
    off the router's answer where no rebalance planned before the
    report could see it."""
    service = build(cls, router="velocity")
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.5, 0.0) for oid in range(30)]
    ))
    oid = 4
    source = service.shard_of(oid)
    recut_before_the_locks(monkeypatch, service)
    service.report(oid, 55.0, 0.5, 1.0)
    want = LinearMotion1D(55.0, 0.5, 1.0)
    dest = service.router.route(oid, want)
    assert dest != source
    assert service.shard_of(oid) == dest
    assert [oid in db for db in service._shards] == [
        shard in service.replica_group(dest)
        for shard in range(service.shard_count)
    ]


# -- log failures outside a write set's append ---------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("leg", ["scalar", "batch"])
def test_a_failed_checkpoint_keeps_the_logged_write(
    monkeypatch, tmp_path, leg
):
    """The log took a write set's records, then the checkpoint that
    followed failed.  The write stands: it is acknowledged and
    committed, the shard goes down until it recovers, and a cold
    restore agrees with the acknowledged outcome."""
    monkeypatch.setattr(ShardWAL, "MIN_TAIL", 4)

    def build_service():
        return FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
            wal_dir=str(tmp_path), wal_fsync="always",
        )

    service = build_service()
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.5, 0.0) for oid in range(8)]
    ))
    on_1 = [oid for oid in range(8) if service.shard_of(oid) == 1]
    wal = service._nodes[1].wal

    def full_disk(payload):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(wal.backend, "checkpoint", full_disk)
    reports = [ReportOp(oid, 500.0 + oid, -0.5, 1.0) for oid in on_1] * 4
    if leg == "batch":
        outcomes = service.apply_batch(reports)
    else:
        outcomes = []
        for op in reports:
            try:
                service.report(op.oid, op.y0, op.v, op.t0)
                outcomes.append(None)
            except ShardUnavailableError as exc:
                outcomes.append(exc)
    assert outcomes[0] is None
    assert service.down_shards() == [1]
    acknowledged = {op.oid: LinearMotion1D(op.y0, op.v, op.t0)
                    for op, outcome in zip(reports, outcomes)
                    if outcome is None}
    catalog = service.motion_snapshot()
    assert {oid: catalog[oid] for oid in acknowledged} == acknowledged
    service.close()

    restored = build_service()
    restored.restore_from_disk()
    assert restored.motion_snapshot() == catalog
    restored.close()


@pytest.mark.chaos
def test_a_migration_copy_whose_log_fails_is_rolled_back(tmp_path):
    """The new shard's log fails while a rehome writes the moved copy:
    the move is refused and the object keeps its owner, and the old
    shard — which dropped its copy after the new one was written —
    goes down with it.  Recovering both leaves no copy on the new
    shard and the object where the catalog says it is."""
    service = FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=1,
        router="velocity", wal_dir=str(tmp_path), wal_fsync="always",
    )
    assert not any(service.apply_batch(
        [RegisterOp(oid, 10.0 * oid, 0.5, 0.0) for oid in range(20)]
    ))
    oid = 3
    source = service.shard_of(oid)
    service.set_bands((0.1, 0.2, 0.3))
    dest = service.router.route(oid, LinearMotion1D(30.0, 0.5, 0.0))
    assert dest != source
    log = service._nodes[dest].wal.backend._log
    log._file = HalfWriteThenENOSPC(log._file)
    moved = service.rehome([oid])
    assert isinstance(moved[oid], ShardUnavailableError)
    assert service.down_shards() == sorted((source, dest))
    assert service.shard_of(oid) == source
    assert service.motion_snapshot()[oid] == LinearMotion1D(30.0, 0.5, 0.0)
    service.recover_shard(dest)
    service.recover_shard(source)
    assert oid not in service._shards[dest]
    assert oid in service._shards[source]
    assert service.within(25.0, 35.0, 0.0, 0.0) == {oid}
    service.close()
