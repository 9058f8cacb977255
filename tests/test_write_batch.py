"""The batched write path: differential wall + crash chaos.

Contract under test at every layer: ``apply_batch`` changes the
*transport* of writes (one lock round, one grouped WAL append + fsync
per shard, one listener fire), never their semantics.  Batched
outcomes, catalogs, WAL streams, subscription delta streams and query
answers must be byte-identical to the scalar calls applied in the same
order — including rejected operations, duplicate oids inside one
batch, and recovery after a crash at either write-batch boundary
(:data:`WRITE_BATCH_CRASH_POINTS`).
"""

import random

import pytest

from repro.core import LinearMotion1D, MobileObject1D, MORQuery1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    SimulatedCrashError,
)
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.service import (
    BatchExecutor,
    CrashPointInjector,
    Deregister,
    FaultTolerantMotionService,
    Register,
    Report,
    RetryPolicy,
    ShardedMotionService,
    SubscriptionManager,
    WRITE_BATCH_CRASH_POINTS,
)
from repro.vector.ops import DeregisterOp, RegisterOp, ReportOp

from .helpers import PAPER_MODEL

pytestmark = pytest.mark.writebatch

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


# -- workload ------------------------------------------------------------------


def build_stream(rng, n, rounds=2, churn=0.1, errors=0.05):
    """Mixed write stream: initial registers, then report rounds with
    deregister/re-register churn and contained-error probes sprinkled
    in — unknown and duplicate oids, and motions no store can hold
    (over-speed, off-terrain), which every surface must refuse before
    it mutates anything."""
    stream = [
        RegisterOp(
            oid,
            rng.uniform(0, Y_MAX),
            rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
            0.0,
        )
        for oid in range(n)
    ]
    population = list(range(n))
    fresh = n
    for round_index in range(1, rounds + 1):
        now = float(round_index)
        order = list(population)
        rng.shuffle(order)
        for oid in order:
            draw = rng.random()
            if draw < errors:
                probe = rng.randrange(6)
                unknown = 10_000_000 + len(stream)
                if probe == 0:
                    stream.append(ReportOp(unknown, 1.0, 1.0, now))
                elif probe == 1:
                    stream.append(DeregisterOp(unknown))
                elif probe == 2:
                    stream.append(RegisterOp(oid, 1.0, 1.0, now))
                elif probe == 3:
                    stream.append(ReportOp(oid, 2 * Y_MAX, 1.0, now))
                elif probe == 4:
                    stream.append(ReportOp(oid, 1.0, -2 * V_MAX, now))
                else:
                    stream.append(RegisterOp(unknown, -1.0, 1.0, now))
            elif draw < errors + churn:
                stream.append(DeregisterOp(oid))
                stream.append(
                    RegisterOp(
                        fresh,
                        rng.uniform(0, Y_MAX),
                        rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                        now,
                    )
                )
                population[population.index(oid)] = fresh
                fresh += 1
            else:
                stream.append(
                    ReportOp(
                        oid,
                        rng.uniform(0, Y_MAX),
                        rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                        now,
                    )
                )
    return stream


def apply_scalar(service, stream):
    outcomes = []
    for op in stream:
        try:
            if isinstance(op, RegisterOp):
                service.register(op.oid, op.y0, op.v, op.t0)
            elif isinstance(op, ReportOp):
                service.report(op.oid, op.y0, op.v, op.t0)
            else:
                service.deregister(op.oid)
            outcomes.append(None)
        except (InvalidMotionError, ObjectNotFoundError) as exc:
            outcomes.append(exc)
    return outcomes


def apply_batched(service, stream, batch_size):
    outcomes = []
    for begin in range(0, len(stream), batch_size):
        outcomes.extend(service.apply_batch(stream[begin:begin + batch_size]))
    return outcomes


def probe_queries():
    queries = []
    for y1 in (0.0, 200.0, 450.0, 700.0):
        for t1, t2 in ((2.0, 2.0), (2.5, 4.0), (3.0, 20.0)):
            queries.append(MORQuery1D(y1, min(y1 + 260.0, Y_MAX), t1, t2))
    return queries


def assert_twins_agree(scalar, batched, want, got):
    assert len(want) == len(got)
    for i, (a, b) in enumerate(zip(want, got)):
        assert type(a) is type(b), f"outcome {i}: {a!r} vs {b!r}"
        if a is not None:
            assert str(a) == str(b), f"outcome {i}: {a!r} vs {b!r}"
    assert batched.motion_snapshot() == scalar.motion_snapshot()
    for query in probe_queries():
        assert batched.within(
            query.y1, query.y2, query.t1, query.t2
        ) == scalar.within(query.y1, query.y2, query.t1, query.t2)
        assert batched.snapshot_at(
            query.y1, query.y2, query.t1
        ) == scalar.snapshot_at(query.y1, query.y2, query.t1)
        assert batched.nearest(query.y1, query.t1, 5) == scalar.nearest(
            query.y1, query.t1, 5
        )


# -- the differential wall -----------------------------------------------------


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_sharded_service_across_seeds_and_shards(self, seed, shards):
        stream = build_stream(random.Random(seed), n=80)
        scalar = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=shards)
        want = apply_scalar(scalar, stream)
        got = apply_batched(batched, stream, batch_size=37)
        assert_twins_agree(scalar, batched, want, got)

    def test_motion_database_rebuild_threshold_crossing(self):
        """Engine-level: a storm big enough to trigger the forest's
        STR rebuild answers exactly like scalar reports."""
        rng = random.Random(5)
        scalar = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
        batched = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
        n = HoughYForestIndex.REBUILD_MIN_BATCH + 100
        stream = build_stream(rng, n=n, rounds=1, churn=0.05)
        want = apply_scalar(scalar, stream)
        # One batch spanning every report: the rebuild must fire.
        got = batched.apply_batch(stream)
        assert want == [None] * len(want) or True  # errors allowed
        assert_twins_agree(scalar, batched, want, got)

    def test_duplicate_oid_in_one_batch_applies_in_order(self):
        """Same-oid operations inside one batch land in submission
        order: last writer wins, and errors surface exactly where the
        scalar sequence would raise them."""
        stream = [
            RegisterOp(1, 100.0, 1.0, 0.0),
            ReportOp(1, 200.0, -1.0, 1.0),
            ReportOp(1, 300.0, 1.0, 2.0),
            DeregisterOp(1),
            ReportOp(1, 400.0, 1.0, 3.0),   # -> ObjectNotFoundError
            RegisterOp(1, 500.0, 1.0, 4.0),  # re-register after delete
            RegisterOp(1, 600.0, 1.0, 5.0),  # -> duplicate
            ReportOp(1, 700.0, -1.0, 6.0),
        ]
        scalar = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        want = apply_scalar(scalar, stream)
        got = batched.apply_batch(stream)
        assert isinstance(got[4], ObjectNotFoundError)
        assert isinstance(got[6], InvalidMotionError)
        assert_twins_agree(scalar, batched, want, got)
        assert batched.motion_snapshot()[1] == LinearMotion1D(
            700.0, -1.0, 6.0
        )

    def test_rejections_never_disturb_neighbours(self):
        stream = [
            RegisterOp(1, 10.0, 1.0, 0.0),
            RegisterOp(1, 20.0, 1.0, 0.0),      # duplicate
            ReportOp(99, 30.0, 1.0, 0.5),        # unknown
            RegisterOp(2, 40.0, -1.0, 0.0),
            DeregisterOp(98),                    # unknown
            ReportOp(2, 50.0, 1.0, 1.0),
            RegisterOp(3, 60.0, 5.0, 0.0),       # invalid speed
        ]
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        outcomes = service.apply_batch(stream)
        assert [type(o) for o in outcomes] == [
            type(None), InvalidMotionError, ObjectNotFoundError,
            type(None), ObjectNotFoundError, type(None),
            InvalidMotionError,
        ]
        assert service.motion_snapshot() == {
            1: LinearMotion1D(10.0, 1.0, 0.0),
            2: LinearMotion1D(50.0, 1.0, 1.0),
        }

    @pytest.mark.parametrize("surface", ["engine", "sharded", "band", "replicated"])
    def test_off_terrain_writes_are_refused_before_any_mutation(
        self, surface, tmp_path
    ):
        """A report is a delete followed by an insert: refusing the
        motion only at the insert left the object registered but
        unindexed (scalar), or escaped ``apply_batch`` as an uncaught
        exception with ghost owner entries behind it (batch)."""
        if surface == "engine":
            service = MotionDatabase(Y_MAX, V_MIN, V_MAX)
        elif surface == "replicated":
            service = make_ft(tmp_path, shards=3, replication=2)
        else:
            service = ShardedMotionService(
                Y_MAX, V_MIN, V_MAX, shards=3,
                router="band" if surface == "band" else "hash",
            )
        service.register(1, 10.0, 1.0, 0.0)
        service.register(2, 20.0, -0.2, 0.0)
        message = "start location 2000.0 outside terrain"
        with pytest.raises(InvalidMotionError, match=message):
            service.report(1, 2000.0, 1.6, 1.0)
        with pytest.raises(InvalidMotionError, match=message):
            service.register(3, 2000.0, 1.0, 1.0)
        outcomes = service.apply_batch([
            ReportOp(1, 2000.0, 1.6, 1.0),
            RegisterOp(3, -5.0, 1.0, 1.0),
            ReportOp(2, -0.5, 0.01, 1.0),    # slow band, off-terrain
            ReportOp(2, 30.0, 1.5, 1.0),
        ])
        assert [type(o) for o in outcomes] == [
            InvalidMotionError, InvalidMotionError, InvalidMotionError,
            type(None),
        ]
        assert message in str(outcomes[0])
        assert 3 not in service
        assert service.within(0.0, Y_MAX, 1.0, 2.0) == {1, 2}
        service.report(1, 40.0, -1.0, 2.0)  # still indexed: not "not indexed"
        assert service.motion_snapshot() == {
            1: LinearMotion1D(40.0, -1.0, 2.0),
            2: LinearMotion1D(30.0, 1.5, 1.0),
        }
        assert service.within(35.0, 45.0, 2.0, 2.0) == {1}
        if surface != "engine":
            service.close()

    def test_report_batch_alias(self):
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
        service.register(1, 10.0, 1.0, 0.0)
        outcomes = service.report_batch([ReportOp(1, 20.0, -1.0, 1.0)])
        assert outcomes == [None]
        assert service.motion_snapshot()[1] == LinearMotion1D(20.0, -1.0, 1.0)

    def test_executor_batch_updates_mode(self):
        """The executor's pushed-down update phase produces the same
        per-op results and final state as its pool path."""
        rng = random.Random(23)
        ops = [Register(oid, rng.uniform(0, Y_MAX), 1.0, 0.0)
               for oid in range(40)]
        ops += [Report(oid, rng.uniform(0, Y_MAX), -1.0, 1.0)
                for oid in range(0, 40, 2)]
        ops += [Deregister(39), Deregister(39), Report(999, 1.0, 1.0, 2.0)]
        pool_service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        push_service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        with BatchExecutor(pool_service) as pool_side:
            pool_results = pool_side.run(list(ops))
        with BatchExecutor(push_service, batch_updates=True) as push_side:
            push_results = push_side.run(list(ops))
        assert len(pool_results) == len(push_results)
        for a, b in zip(pool_results, push_results):
            assert a.op == b.op
            assert (a.error is None) == (b.error is None)
            if a.error is not None:
                assert type(a.error) is type(b.error)
        assert (push_service.motion_snapshot()
                == pool_service.motion_snapshot())


# -- WAL streams and fsync grouping --------------------------------------------


def make_ft(directory, shards=3, replication=1, fsync="always",
            checkpoint_every=10_000, **kwargs):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        retry=RetryPolicy(attempts=3, backoff_s=0.001, sleep=lambda s: None),
        wal_dir=str(directory),
        wal_fsync=fsync,
        checkpoint_every=checkpoint_every,
        **kwargs,
    )


def wal_tails(service):
    return [node.wal.tail() for node in service._nodes]


class TestWALStreams:
    @pytest.mark.parametrize("replication", [1, 2])
    def test_batched_wal_stream_equals_scalar(self, tmp_path, replication):
        """Grouping is invisible in the log: the per-shard record
        streams (kinds, fields, seqs) match the scalar run record for
        record, and both directories recover to the same population."""
        stream = build_stream(random.Random(8), n=50)
        scalar = make_ft(tmp_path / "scalar", replication=replication)
        batched = make_ft(tmp_path / "batched", replication=replication)
        want = apply_scalar(scalar, stream)
        got = apply_batched(batched, stream, batch_size=23)
        assert_twins_agree(scalar, batched, want, got)
        assert wal_tails(batched) == wal_tails(scalar)
        scalar.close()
        batched.close()
        scalar_restored = make_ft(tmp_path / "scalar",
                                  replication=replication)
        batched_restored = make_ft(tmp_path / "batched",
                                   replication=replication)
        scalar_restored.restore_from_disk()
        batched_restored.restore_from_disk()
        assert (batched_restored.motion_snapshot()
                == scalar_restored.motion_snapshot())
        scalar_restored.close()
        batched_restored.close()

    def test_one_fsync_per_shard_per_batch(self, tmp_path):
        """Under a deferred policy the batch path buys durability with
        exactly one fsync per touched shard — the scalar path would
        need one per record to make the same guarantee."""
        service = make_ft(tmp_path, shards=3, fsync="never")
        stream = [
            RegisterOp(oid, 10.0 * oid + 5.0, 1.0, 0.0)
            for oid in range(30)
        ]

        def fsyncs():
            return [
                node.wal.backend.stats()["log"]["fsyncs"]
                for node in service._nodes
            ]

        before = fsyncs()
        outcomes = service.apply_batch(stream)
        after = fsyncs()
        assert outcomes == [None] * len(stream)
        deltas = [b - a for a, b in zip(before, after)]
        assert all(delta == 1 for delta in deltas), deltas
        # And the records really are durable, not just page-cached.
        for node in service._nodes:
            log = node.wal.backend.stats()["log"]
            assert log["synced_bytes"] == log["size_bytes"]
        service.close()


# -- subscriptions -------------------------------------------------------------


class TestSubscriptionDeltas:
    def test_delta_streams_match_scalar(self):
        """Listeners fire once per batch, but each subscription's
        delta stream is indistinguishable from the scalar run's."""
        stream = build_stream(random.Random(12), n=60, rounds=2)
        scalar = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        batched = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3)
        legs = {}
        for name, service in (("scalar", scalar), ("batched", batched)):
            manager = SubscriptionManager(service)
            sids = [
                manager.subscribe_snapshot(100.0, 400.0),
                manager.subscribe_within(500.0, 900.0, horizon=10.0),
            ]
            legs[name] = (manager, sids)
        want = apply_scalar(scalar, stream)
        got = apply_batched(batched, stream, batch_size=41)
        assert_twins_agree(scalar, batched, want, got)
        scalar_manager, scalar_sids = legs["scalar"]
        batched_manager, batched_sids = legs["batched"]
        for sid_a, sid_b in zip(scalar_sids, batched_sids):
            assert (batched_manager.drain_deltas(sid_b)
                    == scalar_manager.drain_deltas(sid_a))
        scalar_manager.close()
        batched_manager.close()


def version_chains(pre, batch):
    """Every motion an object legitimately held at some point of the
    batch: its pre-batch value plus each in-batch write, in order.  A
    recovered value outside its object's chain is torn state."""
    chains = {oid: [motion] for oid, motion in pre.items()}
    live = dict(pre)
    for op in batch:
        if isinstance(op, DeregisterOp):
            live.pop(op.oid, None)
            continue
        if isinstance(op, RegisterOp) and op.oid in live:
            continue  # duplicate: rejected, no new version
        if isinstance(op, ReportOp) and op.oid not in live:
            continue  # unknown: rejected
        if abs(op.v) > V_MAX:
            continue  # invalid speed: rejected
        motion = LinearMotion1D(op.y0, op.v, op.t0)
        live[op.oid] = motion
        chains.setdefault(op.oid, []).append(motion)
    return chains


# -- crash chaos ---------------------------------------------------------------


class TestWriteBatchChaos:
    def test_crash_point_registry(self):
        assert WRITE_BATCH_CRASH_POINTS == (
            "write_batch.pre_fsync", "bulk.mid_pack",
        )

    @pytest.mark.chaos
    @pytest.mark.parametrize("fsync", ["always", "never"])
    def test_crash_between_append_and_sync(self, tmp_path, fsync):
        """Process death after a shard's grouped append but before its
        sync: recovery lands an all-or-prefix cut — every recovered
        motion is a pre-batch or post-batch value, never an invention,
        and each shard's log is a prefix of the crash-free twin's."""
        stream = build_stream(random.Random(31), n=40)
        prologue, batch = stream[:40], stream[40:]
        service = make_ft(tmp_path / "crash", fsync=fsync)
        apply_scalar(service, prologue)
        pre = service.motion_snapshot()
        twin = make_ft(tmp_path / "twin", fsync=fsync)
        apply_scalar(twin, prologue)
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        injector = CrashPointInjector().arm("write_batch.pre_fsync")
        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch, crash_hook=injector)
        assert injector.fired == [("write_batch.pre_fsync", 1)]
        service.close()

        restored = make_ft(tmp_path / "crash", fsync=fsync)
        restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        for oid, motion in recovered.items():
            assert motion in (pre.get(oid), post.get(oid)), (
                f"object {oid} recovered torn motion {motion}"
            )
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize(
        "point,spec",
        [
            ("log.mid_record", {"write_prefix": 7}),
            ("log.pre_fsync", {"drop_unsynced": True}),
        ],
    )
    def test_crash_mid_grouped_append(self, tmp_path, point, spec):
        """Dying *inside* the grouped append — a torn frame, or losing
        the page cache — still recovers a clean per-shard prefix."""
        stream = build_stream(random.Random(47), n=40)
        prologue, batch = stream[:40], stream[40:]
        injector = CrashPointInjector().arm(point, at=60, **spec)
        service = make_ft(tmp_path / "crash", wal_crash_hook=injector)
        apply_scalar(service, prologue)
        pre = service.motion_snapshot()
        twin = make_ft(tmp_path / "twin")
        apply_scalar(twin, prologue)
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch)
        service.close()

        restored = make_ft(tmp_path / "crash")
        summary = restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        assert summary["objects"] == len(recovered)
        chains = version_chains(pre, batch)
        for oid, motion in recovered.items():
            assert motion in chains.get(oid, []), (
                f"object {oid} recovered torn motion {motion}"
            )
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.close()

    @pytest.mark.chaos
    def test_crash_mid_bulk_rebuild_never_adopts_half_generation(self):
        """A bulk rebuild that dies between tree packs must leave the
        forest exactly as it was — the half-built generation is
        discarded, and a retry completes cleanly."""
        rng = random.Random(9)
        model = PAPER_MODEL
        population = [
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, model.terrain.y_max),
                    rng.choice([1.0, -1.0])
                    * rng.uniform(model.v_min, model.v_max),
                    0.0,
                ),
            )
            for oid in range(HoughYForestIndex.REBUILD_MIN_BATCH + 40)
        ]
        forest = HoughYForestIndex(model, c=2)
        twin = HoughYForestIndex(model, c=2)
        for obj in population:
            forest.insert(obj)
            twin.insert(obj)
        storm = [
            MobileObject1D(
                obj.oid,
                LinearMotion1D(
                    rng.uniform(0, model.terrain.y_max),
                    obj.motion.v,
                    1.0,
                ),
            )
            for obj in population
        ]
        injector = CrashPointInjector().arm("bulk.mid_pack", at=2)
        forest.crash_hook = injector
        with pytest.raises(SimulatedCrashError):
            forest.update_batch(storm)
        assert injector.fired == [("bulk.mid_pack", 2)]
        # Pre-storm state intact, byte for byte.
        probe = MORQuery1D(0.0, model.terrain.y_max, 0.0, 50.0)
        assert len(forest) == len(twin)
        assert forest.query(probe) == twin.query(probe)
        # The retry (hook disarmed) completes and matches a clean run.
        forest.crash_hook = None
        forest.update_batch(storm)
        twin.update_batch(storm)
        assert forest.query(probe) == twin.query(probe)
        for y1 in (0.0, 300.0, 600.0):
            window = MORQuery1D(y1, y1 + 350.0, 5.0, 40.0)
            assert forest.query(window) == twin.query(window)


# -- one write plan, three seams -----------------------------------------------


def seam_phases(rng):
    """Three write phases around a migration window (oids 5, 6 and 7
    are mid-migration during the second): duplicate registers, unknown
    oids, over-speed and off-terrain motions, cross-band reports,
    double-writes, a deregister that must reach both sides, and one
    oid's whole register → report → deregister life inside a batch."""
    def speed(band):
        return rng.choice([1.0, -1.0]) * rng.uniform(
            *[(V_MIN, 0.5), (0.6, 1.0), (1.2, V_MAX)][band]
        )

    before = [
        RegisterOp(oid, rng.uniform(0, Y_MAX), speed(oid % 3), 0.0)
        for oid in range(40)
    ]
    before += [
        RegisterOp(3, 1.0, 1.0, 0.5),               # duplicate
        ReportOp(777, 1.0, 1.0, 0.5),               # unknown
        DeregisterOp(778),                          # unknown
        ReportOp(4, 10.0, 2 * V_MAX, 0.5),          # over-speed
        RegisterOp(900, -5.0, 1.0, 0.5),            # off-terrain
    ]
    before += [
        ReportOp(oid, rng.uniform(0, Y_MAX), speed((oid + 1) % 3), 1.0)
        for oid in range(0, 40, 3)                  # cross-band
    ]
    window = [
        ReportOp(5, 100.0, speed(0), 2.0),          # double-write
        ReportOp(5, 200.0, speed(2), 2.5),          # ... never re-routed
        ReportOp(5, 2 * Y_MAX, 1.0, 2.6),           # refused, fence or not
        DeregisterOp(6),                            # both sides
        ReportOp(6, 1.0, 1.0, 2.7),                 # unknown by now
        RegisterOp(950, 300.0, speed(0), 2.0),
        ReportOp(950, 310.0, speed(2), 2.5),
        DeregisterOp(950),
        ReportOp(7, 400.0, speed(1), 2.8),
    ]
    window += [
        ReportOp(oid, rng.uniform(0, Y_MAX), speed(oid % 3), 2.9)
        for oid in range(10, 30)
    ]
    after = [ReportOp(5, 500.0, speed(1), 3.0), RegisterOp(6, 1.0, 1.0, 3.0)]
    after += [
        ReportOp(oid, rng.uniform(0, Y_MAX), speed((oid + 2) % 3), 3.5)
        for oid in range(0, 40, 2)
    ]
    return before, window, after


def drive_phases(service, phases, apply):
    """Run the phases with oids 5–7 migrating during the second; 5 is
    committed, 7 aborted, 6 deregistered mid-flight."""
    events = []
    service.attach_update_listener(lambda *event: events.append(event))
    before, window, after = phases
    outcomes = apply(service, before)
    states = {
        oid: service.begin_migration(
            oid, (service.shard_of(oid) + 1) % service.shard_count
        )
        for oid in (5, 6, 7)
    }
    outcomes += apply(service, window)
    service.commit_migration(states[5])
    service.abort_migration(states[7])
    outcomes += apply(service, after)
    return outcomes, events


def apply_whole(service, ops):
    return service.apply_batch(ops)


class TestOneWritePlan:
    @pytest.mark.parametrize("router", ["hash", "velocity"])
    @pytest.mark.parametrize("apply", [apply_scalar, apply_whole])
    def test_plain_service_is_the_unreplicated_fault_tolerant_one(
        self, router, apply
    ):
        """The base class is the ``replication = 1``, no-log, no-guard
        case of the fault-tolerant one: same outcomes, catalog,
        residency, listener events and window counters — and, verb by
        verb, the same page accesses on every shard."""
        phases = seam_phases(random.Random(44))
        plain = ShardedMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, router=router
        )
        replicated = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, router=router,
            replication_factor=1,
        )
        want, want_events = drive_phases(plain, phases, apply)
        got, got_events = drive_phases(replicated, phases, apply)
        assert [type(o) for o in want].count(type(None)) < len(want)
        assert_twins_agree(plain, replicated, want, got)
        assert replicated.shard_populations() == plain.shard_populations()
        assert got_events == want_events
        for name in ("rebalance_double_writes", "rebalance_fenced_writes"):
            assert (replicated.metrics.counter(name).value
                    == plain.metrics.counter(name).value)
        assert plain.metrics.counter("rebalance_double_writes").value == 3
        assert [
            state["io"] for state in replicated.service_stats()["shard_state"]
        ] == [state["io"] for state in plain.service_stats()["shard_state"]]

    @pytest.mark.parametrize("router", ["hash", "velocity"])
    def test_scalar_and_batched_logs_agree_through_a_migration(
        self, tmp_path, router
    ):
        """At ``replication = 2`` the scalar verbs and ``apply_batch``
        write the same per-shard records — kinds, fields, seqs, and
        the ``fence`` on every double-write of the window."""
        phases = seam_phases(random.Random(45))
        scalar = make_ft(tmp_path / "scalar", replication=2, router=router)
        batched = make_ft(tmp_path / "batched", replication=2, router=router)
        want, _ = drive_phases(scalar, phases, apply_scalar)
        got, _ = drive_phases(batched, phases, apply_whole)
        assert_twins_agree(scalar, batched, want, got)
        assert wal_tails(batched) == wal_tails(scalar)
        fenced = [
            record
            for tail in wal_tails(batched)
            for record in tail
            if "fence" in record
        ]
        # 3 double-writes × (2 participants × 2 replicas, overlapping
        # in one shard of the 3).
        assert {record["oid"] for record in fenced} == {5, 7}
        assert all(record["kind"] == "update" for record in fenced)
        assert len(fenced) == 9
        scalar.close()
        batched.close()

    def test_replicated_batch_takes_the_leaf_at_a_time_path(self):
        """At ``replication = 2`` a shard absorbs its share of a batch
        through one grouped ``MotionDatabase.apply_batch``: a 256-report
        batch on 10k objects costs a few pages per report on each of
        its two replicas, not the two descents per tree of a scalar
        delete + insert (~70 pages per op)."""
        rng = random.Random(46)
        service = FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=4, replication_factor=2,
            method="forest",
        )
        fleet = build_stream(rng, n=10_000, rounds=0)
        for begin in range(0, len(fleet), 2_000):
            assert not any(service.apply_batch(fleet[begin:begin + 2_000]))

        def pages():
            return sum(
                state["io"]["reads"] + state["io"]["writes"]
                for state in service.service_stats()["shard_state"]
            )

        reports = [
            ReportOp(
                oid,
                rng.uniform(0, Y_MAX),
                rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                1.0,
            )
            for oid in rng.sample(range(10_000), 256)
        ]
        before = pages()
        assert not any(service.apply_batch(reports))
        assert (pages() - before) / len(reports) < 5

    def test_fault_tolerant_service_only_overrides_the_seams(self):
        """Every verb exists once, in the base class."""
        inherited = (
            "register", "report", "deregister", "begin_migration",
            "commit_migration", "abort_migration", "within", "snapshot_at",
            "query_past", "nearest", "proximity_pairs",
            "_report_migrating", "_apply_one_replicated",
        )
        assert not set(inherited) & set(vars(FaultTolerantMotionService))


def cold_query_reads(db, queries):
    """Pages read answering ``queries``, each against empty buffers."""
    reads = 0
    for verb, *args in queries:
        db.clear_buffers()
        before = db.io_snapshot()
        getattr(db, verb)(*args)
        reads += db.io_delta_since(before).reads
    return reads


def evenly_packed_pages(tree, fill):
    """Pages of ``tree`` had ``BPlusTree.bulk_load`` just packed its
    records at ``fill``: every level takes the fewest pages that hold
    its entries at that occupancy, as long as each stays half full."""
    pages, entries, capacity = 0, len(tree), tree.leaf_capacity
    while True:
        entries = max(
            1,
            min(-(-entries // int(capacity * fill)), entries // (capacity // 2)),
        )
        pages += entries
        if entries == 1:
            return pages
        capacity = tree.internal_capacity


def test_chunked_batch_load_builds_trees_no_worse_than_scalar_registers():
    """The shape a load leaves behind is what later queries pay for.
    5,000 objects into the forest by scalar ``register``, by one
    ``apply_batch`` (a bulk build) and by five 1,000-op ``apply_batch``
    chunks (one bulk build, then four grouped runs that overfill nearly
    every leaf): summed over 10 seeds × 96 cold "10 %"-class queries,
    the chunked load must read within 2 % of the scalar load's pages —
    median splits under half-arrived runs and a lopsided bulk start
    used to cost it 14 % — and hold no more pages.  The one bulk build
    holds exactly what its packing rule says, tree by tree."""
    reads = {"scalar": 0, "bulk": 0, "chunked": 0}
    pages = dict(reads)
    for seed in range(10):
        rng = random.Random(seed)
        fleet = build_stream(rng, n=5_000, rounds=0)
        queries = []
        for _ in range(32):
            t1 = 64.0 + rng.uniform(0, 10)
            y1 = rng.uniform(0, Y_MAX - 75.0)
            queries.append(("within", y1, y1 + 75.0, t1, t1 + 30.0))
            y1 = rng.uniform(0, Y_MAX - 100.0)
            queries.append(("snapshot_at", y1, y1 + 100.0, t1))
            queries.append(("nearest", rng.uniform(0, Y_MAX), t1, 10))
        for load, chunk in (
            ("scalar", None), ("bulk", 5_000), ("chunked", 1_000)
        ):
            db = MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest")
            if chunk is None:
                assert not any(apply_scalar(db, fleet))
            else:
                assert not any(apply_batched(db, fleet, chunk))
            reads[load] += cold_query_reads(db, queries)
            pages[load] += db.pages_in_use
            if load == "bulk":
                hybrid = db._index
                assert db.pages_in_use == hybrid._slow.pages_in_use + sum(
                    evenly_packed_pages(tree, HoughYForestIndex.REBUILD_FILL)
                    for tree in hybrid._fast._trees.values()
                )
    assert reads["chunked"] <= 1.02 * reads["scalar"]
    assert pages["chunked"] <= pages["scalar"]
    # One bulk build leaves every leaf its 20 % slack.  Median-split
    # scalar growth has no such rule — its fill depends on where n sits
    # in the split cycle (here just above 0.8, 820 pages to 882) — so
    # the page counts are not ordered; under a query the slack costs
    # 6.3 % more pages (5.2 % when it sat in each tree's last leaf; the
    # even spread may cost 1.5 % at most, which is 1.068).
    assert reads["bulk"] <= 1.07 * reads["scalar"]
