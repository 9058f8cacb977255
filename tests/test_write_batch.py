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
import shutil

import pytest

from repro.core import LinearMotion1D, MobileObject1D, MORQuery1D
from repro.engine import MotionDatabase
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ShardUnavailableError,
    SimulatedCrashError,
)
from repro.indexes.hough_y_forest import HoughYForestIndex
from repro.service import (
    BandRouter,
    CrashPointInjector,
    FaultInjector,
    FaultTolerantMotionService,
    ShardedMotionService,
    ShardWAL,
    SubscriptionManager,
    WRITE_BATCH_CRASH_POINTS,
)
from repro.vector.ops import DeregisterOp, RegisterOp, ReportOp

from .helpers import PAPER_MODEL

pytestmark = pytest.mark.writebatch

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66


@pytest.fixture(autouse=True)
def whole_logs(monkeypatch):
    """No automatic checkpoints: the WAL-stream walls compare whole
    per-shard logs, and the scalar verbs and ``apply_batch`` consult
    the checkpoint trigger at different points (per record, per
    group)."""
    monkeypatch.setattr(ShardWAL, "MIN_TAIL", 10**9)


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
        except (
            InvalidMotionError, ObjectNotFoundError, ShardUnavailableError
        ) as exc:
            outcomes.append(exc)
    return outcomes


def apply_batched(service, stream, batch_size):
    outcomes = []
    for begin in range(0, len(stream), batch_size):
        outcomes.extend(service.apply_batch(stream[begin:begin + batch_size]))
    return outcomes


def batch_sizes(own):
    """A wall's batch-size axis: its own size, below the column cut,
    and two above it, so its stream also reaches the column plan."""
    above = (64, 200)
    assert own < ShardedMotionService._COLUMNS_MIN_SET <= min(above)
    return (own,) + above


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
        want = apply_scalar(scalar, stream)
        for batch_size in batch_sizes(37):
            batched = ShardedMotionService(
                Y_MAX, V_MIN, V_MAX, shards=shards
            )
            got = apply_batched(batched, stream, batch_size=batch_size)
            assert_twins_agree(scalar, batched, want, got)

    @pytest.mark.parametrize("router", ["hash", "velocity"])
    @pytest.mark.parametrize("seed", [4, 23])
    def test_sets_on_both_sides_of_the_column_cut(self, router, seed):
        """Sets of 1 to 300 ops mixing the rows a batch plans as columns
        with the rows it walks (:func:`mixed_sets`) leave the plain
        service where the scalar loop leaves it: outcomes, catalog,
        residency and answers."""
        sets = mixed_sets(random.Random(seed), n=300)
        scalar, batched = (
            ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4, router=router)
            for _ in range(2)
        )
        want, got = [], []
        for ops in sets:
            want += apply_scalar(scalar, ops)
            got += batched.apply_batch(ops)
        assert_twins_agree(scalar, batched, want, got)
        assert batched._owner == scalar._owner
        assert batched.shard_populations() == scalar.shard_populations()

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


# -- WAL streams and fsync grouping --------------------------------------------


def make_ft(directory, shards=3, replication=1, fsync="always", **kwargs):
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX,
        shards=shards,
        replication_factor=replication,
        wal_dir=str(directory),
        wal_fsync=fsync,
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
        want = apply_scalar(scalar, stream)
        names = [f"batched-{size}" for size in batch_sizes(23)]
        for name, batch_size in zip(names, batch_sizes(23)):
            batched = make_ft(tmp_path / name, replication=replication)
            got = apply_batched(batched, stream, batch_size=batch_size)
            assert_twins_agree(scalar, batched, want, got)
            assert wal_tails(batched) == wal_tails(scalar)
            batched.close()
        scalar.close()
        restored = []
        for name in ["scalar"] + names:
            service = make_ft(tmp_path / name, replication=replication)
            service.restore_from_disk()
            restored.append(service)
        for service in restored[1:]:
            assert service.motion_snapshot() == restored[0].motion_snapshot()
        for service in restored:
            service.close()

    @pytest.mark.parametrize("fsync", ["never", "batch:8"])
    def test_one_fsync_per_shard_per_batch(self, tmp_path, fsync):
        """The batch path buys durability with exactly one fsync per
        touched shard, whatever the policy — a shard's group is one
        write and one policy check, so ``batch:8`` does not fsync every
        8 records of it.  The scalar path would need one per record to
        make the same guarantee."""
        service = make_ft(tmp_path, shards=3, fsync=fsync)
        # 60 registers: about 20 records a shard, over the interval 8.
        stream = [
            RegisterOp(oid, 10.0 * oid + 5.0, 1.0, 0.0)
            for oid in range(60)
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

    @pytest.mark.parametrize("degraded", ["shard-down", "injector"])
    def test_degraded_batch_syncs_every_touched_shard(self, tmp_path,
                                                      degraded):
        """A shard down or an injector armed sends ``apply_batch`` down
        the per-op scalar path, which only appends; the batch must
        still sync every live shard it wrote before acknowledging."""
        kwargs = {}
        if degraded == "injector":
            kwargs["fault_injector"] = FaultInjector({})
        service = make_ft(tmp_path, shards=4, replication=2,
                          fsync="batch:32", **kwargs)
        registers = [
            RegisterOp(oid, 10.0 * oid + 5.0, 1.0, 0.0) for oid in range(40)
        ]
        assert service.apply_batch(registers) == [None] * len(registers)
        if degraded == "shard-down":
            service.kill_shard(3)

        def logs():
            return [node.wal.backend.stats()["log"] for node in service._nodes]

        before = logs()
        reports = [
            ReportOp(oid, 10.0 * oid + 8.0, -1.0, 1.0) for oid in range(8)
        ]
        assert service.apply_batch(reports) == [None] * len(reports)
        live = [
            (shard, was, now)
            for shard, (was, now) in enumerate(zip(before, logs()))
            if service._nodes[shard].up
        ]
        assert any(now["size_bytes"] > was["size_bytes"]
                   for _, was, now in live)
        for shard, _, now in live:
            assert now["synced_bytes"] == now["size_bytes"], shard
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


def mixed_sets(rng, n):
    """Write sets for a 4-shard velocity router (bands cut at
    ``V_MAX / 4``, ``V_MAX / 2``, ``3 V_MAX / 4``), of sizes 1 to 300,
    mixing the rows a batch plan decides as columns — new registers,
    reports that keep their band, deregisters — with the rows it walks:
    reports that cross a band, oids named twice or more, duplicate
    registers, unknown oids and refused motions; most sets are mostly
    plain, a few mostly walked.  ``n`` objects are registered first, in
    two sets."""
    edges = [0.0, V_MAX / 4, V_MAX / 2, 3 * V_MAX / 4, V_MAX]

    def speed(band):
        lo, hi = edges[band], edges[band + 1]
        return rng.choice([1.0, -1.0]) * rng.uniform(lo + 0.01, hi - 0.01)

    live = {}  # oid -> band
    fresh = [0]
    t = [0.0]

    def register():
        oid, band = fresh[0], rng.randrange(4)
        fresh[0] += 1
        live[oid] = band
        return RegisterOp(oid, rng.uniform(0, Y_MAX), speed(band), t[0])

    def report(oid, band):
        live[oid] = band
        return ReportOp(oid, rng.uniform(0, Y_MAX), speed(band), t[0])

    def plain_op():
        draw = rng.random()
        if draw < 0.2 or not live:
            return register()
        oid = rng.choice(sorted(live))
        if draw < 0.3:
            del live[oid]
            return DeregisterOp(oid)
        return report(oid, live[oid])

    def walked_ops():
        draw = rng.randrange(7)
        oid = rng.choice(sorted(live))
        if draw == 0:
            return [report(oid, (live[oid] + rng.randrange(1, 4)) % 4)]
        if draw == 1:
            ops = [report(oid, rng.randrange(4)), report(oid, live[oid])]
            if rng.random() < 0.5:
                del live[oid]
                ops.append(DeregisterOp(oid))
            return ops
        if draw == 2:
            new = register()
            del live[new.oid]
            return [new, ReportOp(new.oid, 5.0, speed(rng.randrange(4)), t[0]),
                    DeregisterOp(new.oid)]
        if draw == 3:
            return [RegisterOp(oid, 1.0, 1.0, t[0])]
        if draw == 4:
            return [rng.choice([ReportOp(10**6 + oid, 1.0, 1.0, t[0]),
                                DeregisterOp(10**6 + oid)])]
        if draw == 5:
            return [ReportOp(oid, 2 * Y_MAX, 1.0, t[0])]
        return [ReportOp(oid, 1.0, -2 * V_MAX, t[0])]

    half = n // 2
    sets = [[register() for _ in range(half)],
            [register() for _ in range(n - half)]]
    # (size, share of walked draws): the 0.9 sets have too few plain
    # rows for the column pass, whatever their size.
    shapes = [(1, .15), (3, .15), (1, .15), (16, .15), (33, .15),
              (2, .15), (128, .15), (1, .15), (300, .15), (64, .9),
              (64, .15), (5, .15), (200, .15), (1, .15), (40, .15),
              (150, .9)]
    for size, walked_share in shapes * 2:
        t[0] += 1.0
        ops = []
        while len(ops) < size:
            if len(ops) < size - 3 and rng.random() < walked_share:
                ops += walked_ops()
            else:
                ops.append(plain_op())
        sets.append(ops)
    return sets


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
        # What each shard's log held on disk (restore checkpoints it).
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        for oid, motion in recovered.items():
            assert motion in (pre.get(oid), post.get(oid)), (
                f"object {oid} recovered torn motion {motion}"
            )
        restored.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize("fsync", ["always", "never"])
    def test_degraded_batch_fires_its_crash_hook(self, tmp_path, fsync):
        """A shard down changes which steps a batch admits, not how it
        commits them: the batch still dies at ``write_batch.pre_fsync``,
        and every shard's log recovers a prefix of the crash-free
        twin's, with no motion outside the pre- or post-batch state."""
        stream = build_stream(random.Random(31), n=40)
        prologue, batch = stream[:40], stream[40:]
        legs = []
        for name in ("crash", "twin"):
            service = make_ft(tmp_path / name, shards=4, replication=2,
                              fsync=fsync)
            apply_scalar(service, prologue)
            service.kill_shard(3)
            legs.append(service)
        service, twin = legs
        pre = service.motion_snapshot()
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        injector = CrashPointInjector().arm("write_batch.pre_fsync")
        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch, crash_hook=injector)
        assert injector.fired == [("write_batch.pre_fsync", 1)]
        service.close()

        shutil.copytree(tmp_path / "crash", tmp_path / "copy")
        restored = make_ft(tmp_path / "copy", shards=4, replication=2,
                           fsync=fsync)
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        restored.restore_from_disk()
        for oid, motion in restored.motion_snapshot().items():
            assert motion in (pre.get(oid), post.get(oid)), (
                f"object {oid} recovered torn motion {motion}"
            )
        restored.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize("router", ["hash", "velocity"])
    @pytest.mark.parametrize("seed", [2, 19])
    def test_injector_armed_batches_equal_the_scalar_loop(
        self, tmp_path, router, seed
    ):
        """Under two injected shard crashes the batch admits each
        planned step through the same guard as the scalar verbs: same
        outcomes (``ShardUnavailableError`` for a write whose whole
        group is down), catalog, down shards, fault counts and shard
        contents — and the same state after ``recover_shard`` and after
        a cold restore of the directory."""
        stream = build_stream(random.Random(seed), n=80, rounds=3)

        def build(name, directory, injector):
            return make_ft(
                directory / name, shards=4, replication=2, router=router,
                fault_injector=injector,
            )

        def injector():
            return FaultInjector({1: 60, 2: 110})

        def contents(service):
            return [db.motion_snapshot() for db in service._shards]

        scalar = build("scalar", tmp_path, injector())
        want = apply_scalar(scalar, stream)
        assert ShardUnavailableError in map(type, want)
        assert {1, 2} <= set(scalar.down_shards())
        names = [f"batched-{size}" for size in batch_sizes(16)]
        twins = []
        for name, batch_size in zip(names, batch_sizes(16)):
            batched = build(name, tmp_path, injector())
            got = apply_batched(batched, stream, batch_size=batch_size)
            assert [(type(o), str(o)) for o in got] == [
                (type(o), str(o)) for o in want
            ]
            assert batched.down_shards() == scalar.down_shards()
            assert batched.motion_snapshot() == scalar.motion_snapshot()
            assert (batched._injector.snapshot()
                    == scalar._injector.snapshot())
            assert contents(batched) == contents(scalar)
            twins.append(batched)
        for service in [scalar] + twins:
            for shard in service.down_shards():
                service.recover_shard(shard)
        for batched in twins:
            assert batched.down_shards() == []
            assert contents(batched) == contents(scalar)
        for service in [scalar] + twins:
            service.close()

        restored = []
        for name in ["scalar"] + names:
            shutil.copytree(tmp_path / name, tmp_path / "copy" / name)
            service = build(name, tmp_path / "copy", None)
            service.restore_from_disk()
            restored.append(service)
        for service in restored[1:]:
            assert service.motion_snapshot() == restored[0].motion_snapshot()
            assert contents(service) == contents(restored[0])
        for service in restored:
            service.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", [4, 23, 57])
    def test_plain_and_walked_rows_equal_the_scalar_loop(self, tmp_path, seed):
        """A batch's plan decides its plain rows as columns and walks the
        rest; under a velocity router at ``replication = 2``, with three
        injected crashes, a killed shard and the recoveries, sets of every
        size mixing both kinds of row leave what the scalar loop leaves:
        outcomes (type and message), per-shard log streams, the owner
        and motion catalogs, and the injector's per-shard access counts
        (so each crash landed on the same access).  Shard 1 crashes
        before shard 3 is killed, shard 2 while it is down (its group
        goes dark) and shard 0 after both recovered."""
        sets = mixed_sets(random.Random(seed), n=300)

        def build(name):
            return make_ft(
                tmp_path / name, shards=4, replication=2, router="velocity",
                fault_injector=FaultInjector({1: 150, 2: 400, 0: 700}),
            )

        scalar, batched = build("scalar"), build("batched")
        # Sets on both sides of the size below which every row is walked.
        sizes = sorted(map(len, sets))
        assert sizes[0] < batched._COLUMNS_MIN_SET <= sizes[-1]
        want, got = [], []
        for step, ops in enumerate(sets):
            if step == len(sets) // 3:
                for service in (scalar, batched):
                    service.kill_shard(3)
            if step == 2 * len(sets) // 3:
                for service in (scalar, batched):
                    for shard in service.down_shards():
                        service.recover_shard(shard)
            want += apply_scalar(scalar, ops)
            got += batched.apply_batch(ops)
        assert [(type(o), str(o)) for o in got] == [
            (type(o), str(o)) for o in want
        ]
        kinds = set(map(type, want))
        assert {InvalidMotionError, ObjectNotFoundError,
                ShardUnavailableError} <= kinds
        faults = scalar._injector.snapshot()
        assert sorted(faults["crashed_shards"]) == [0, 1, 2]
        assert batched._injector.snapshot()["ops_per_shard"] == (
            faults["ops_per_shard"]
        )
        assert batched.down_shards() == scalar.down_shards()
        assert batched._owner == scalar._owner
        assert batched._catalog_motion == scalar._catalog_motion
        assert wal_tails(batched) == wal_tails(scalar)
        assert [db.motion_snapshot() for db in batched._shards] == [
            db.motion_snapshot() for db in scalar._shards
        ]
        scalar.close()
        batched.close()

    @pytest.mark.chaos
    def test_a_deregister_skips_a_replica_its_copy_never_reached(
        self, tmp_path
    ):
        """Staging skips a delete on a shard that holds no copy — a
        copy whose write never landed there — before its guard, in a
        batch's column pass as in the walked plan.  Replica 1 of group
        ``{0, 1}`` misses the registers while down and is brought back
        without reconciliation; deregistering the objects then writes
        what the scalar loop writes, and nothing reaches shard 1."""
        def build(name):
            return make_ft(tmp_path / name, shards=3, replication=2)

        scalar, batched = build("scalar"), build("batched")
        registers = [RegisterOp(oid, 4.0 * oid, 1.0, 0.0)
                     for oid in range(240)]
        for service in (scalar, batched):
            assert not any(service.apply_batch(registers[:120]))
            service.kill_shard(1)
            assert not any(service.apply_batch(registers[120:]))
            service._nodes[1].mark_up()
        missed = [oid for oid in range(120, 240) if scalar.shard_of(oid) == 0]
        assert missed and not any(oid in scalar._shards[1] for oid in missed)
        deregisters = [DeregisterOp(oid) for oid in range(0, 240, 2)]
        assert len(deregisters) >= batched._COLUMNS_MIN_SET
        want = apply_scalar(scalar, deregisters)
        got = batched.apply_batch(deregisters)
        assert got == want == [None] * len(deregisters)
        assert wal_tails(batched) == wal_tails(scalar)
        assert [db.motion_snapshot() for db in batched._shards] == [
            db.motion_snapshot() for db in scalar._shards
        ]
        scalar.close()
        batched.close()

    @pytest.mark.chaos
    @pytest.mark.parametrize(
        "point,spec",
        [
            # The 40 prologue registers each fire every log hook once;
            # a shard's grouped append fires each once more.  Arrival
            # 41 is the first touched shard's group: half its bytes land.
            ("log.mid_record", {"at": 41, "write_prefix": None}),
            # Arrival 42 is the second shard's group: written, then the
            # page cache is lost before its fsync.
            ("log.pre_fsync", {"at": 42, "drop_unsynced": True}),
        ],
    )
    def test_crash_mid_grouped_append(self, tmp_path, point, spec):
        """Dying *inside* a grouped append — its frames torn mid-group,
        or written and lost with the page cache — still recovers a
        clean per-shard prefix."""
        stream = build_stream(random.Random(47), n=40)
        prologue, batch = stream[:40], stream[40:]
        injector = CrashPointInjector().arm(point, **spec)
        service = make_ft(tmp_path / "crash", wal_crash_hook=injector)
        apply_scalar(service, prologue)
        pre = service.motion_snapshot()
        before = [len(tail) for tail in wal_tails(service)]
        twin = make_ft(tmp_path / "twin")
        apply_scalar(twin, prologue)
        twin.apply_batch(batch)
        post = twin.motion_snapshot()
        twin_tails = wal_tails(twin)
        twin.close()

        with pytest.raises(SimulatedCrashError):
            service.apply_batch(batch)
        assert injector.fired == [(point, spec["at"])]
        service.close()

        restored = make_ft(tmp_path / "crash")
        # What each shard's log held on disk (restore checkpoints it).
        kept = [len(tail) for tail in wal_tails(restored)]
        for shard, tail in enumerate(wal_tails(restored)):
            assert tail == twin_tails[shard][:len(tail)], (
                f"shard {shard} log is not a prefix of the twin's"
            )
        # The synced prologue always survives.
        assert all(k >= b for k, b in zip(kept, before)), (kept, before)
        touched = [s for s, tail in enumerate(twin_tails)
                   if len(tail) > before[s]]
        first, second = touched[0], touched[1]
        if point == "log.mid_record":
            # Torn inside the group: some of its frames, not all.
            assert before[first] < kept[first] < len(twin_tails[first])
        else:
            assert kept[first] == len(twin_tails[first])
            assert kept[second] == before[second]
        summary = restored.restore_from_disk()
        recovered = restored.motion_snapshot()
        assert summary["objects"] == len(recovered)
        chains = version_chains(pre, batch)
        for oid, motion in recovered.items():
            assert motion in chains.get(oid, []), (
                f"object {oid} recovered torn motion {motion}"
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
    """Three write phases around a band re-cut (under a band router,
    the second runs after the re-cut and before the rehome of what it
    displaced): duplicate registers, unknown oids, over-speed and
    off-terrain motions, cross-band reports, a deregister of an object
    the re-cut displaced, and one oid's whole register → report →
    deregister life inside a batch."""
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
        ReportOp(5, 100.0, speed(0), 2.0),          # routed by the new cut
        ReportOp(5, 200.0, speed(2), 2.5),          # ... and moved again
        ReportOp(5, 2 * Y_MAX, 1.0, 2.6),           # refused
        DeregisterOp(6),                            # before its rehome
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
    """Run the phases; under a band router, re-cut the bands before the
    second and rehome every object the cut still displaces after it
    (the hash router has no bands: its phases run back to back)."""
    events = []
    service.attach_update_listener(lambda writes: events.append(list(writes)))
    before, window, after = phases
    outcomes = apply(service, before)
    recut = isinstance(service.router, BandRouter)
    if recut:
        service.set_bands((0.3, 0.8))
    outcomes += apply(service, window)
    if recut:
        moved = service.rehome(sorted(service.motion_snapshot()))
        assert moved and not any(moved.values())
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
        residency and listener events — and, verb by verb, the same
        page accesses on every shard."""
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
        assert [
            state["io"] for state in replicated.service_stats()["shard_state"]
        ] == [state["io"] for state in plain.service_stats()["shard_state"]]

    @pytest.mark.parametrize("router", ["hash", "velocity"])
    def test_scalar_and_batched_logs_agree_through_a_migration(
        self, tmp_path, router
    ):
        """At ``replication = 2`` the scalar verbs and ``apply_batch``
        write the same per-shard records — kinds, fields and seqs — and
        a re-cut and its rehome log nothing but a ``bands`` marker per
        shard and plain write records."""
        phases = seam_phases(random.Random(45))
        scalar = make_ft(tmp_path / "scalar", replication=2, router=router)
        batched = make_ft(tmp_path / "batched", replication=2, router=router)
        want, _ = drive_phases(scalar, phases, apply_scalar)
        got, _ = drive_phases(batched, phases, apply_whole)
        assert_twins_agree(scalar, batched, want, got)
        assert wal_tails(batched) == wal_tails(scalar)
        kinds = [
            record["kind"] for tail in wal_tails(batched) for record in tail
        ]
        assert set(kinds) <= {"insert", "update", "delete", "bands"}
        assert kinds.count("bands") == (3 if router == "velocity" else 0)
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
            "register", "report", "deregister", "set_bands", "rehome",
            "within", "snapshot_at", "query_past", "nearest",
            "proximity_pairs", "_report_migrating", "_apply_one_replicated",
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
