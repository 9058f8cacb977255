"""Tests for the MotionDatabase facade."""

import random

import pytest

from repro.core import LinearMotion1D, MobileObject1D, brute_force_1d
from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.extensions import brute_force_knn
from repro.vector.ops import DeregisterOp, RegisterOp, ReportOp, Within


def populate(db, rng, n=100, t0=0.0):
    objects = []
    for oid in range(n):
        y0 = rng.uniform(0, 1000)
        v = rng.choice([-1, 1]) * rng.uniform(0.16, 1.66)
        db.register(oid, y0, v, t0)
        objects.append(MobileObject1D(oid, LinearMotion1D(y0, v, t0)))
    return objects


class TestLifecycle:
    def test_register_report_deregister(self):
        db = MotionDatabase(1000.0, 0.16, 1.66)
        db.register(1, 100.0, 1.0, 0.0)
        assert 1 in db
        assert len(db) == 1
        assert db.location_of(1, 10.0) == 110.0
        db.report(1, 110.0, -1.0, 10.0)
        assert db.location_of(1, 20.0) == 100.0
        assert db.now == 10.0
        db.deregister(1)
        assert 1 not in db

    def test_unknown_object_errors(self):
        db = MotionDatabase(1000.0, 0.16, 1.66)
        with pytest.raises(ObjectNotFoundError):
            db.report(9, 0.0, 1.0, 0.0)
        with pytest.raises(ObjectNotFoundError):
            db.deregister(9)
        with pytest.raises(ObjectNotFoundError):
            db.location_of(9, 0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MotionDatabase(1000.0, 0.16, 1.66, method="btree-of-doom")

    def test_duplicate_register_rejected(self):
        """Regression: re-registering an oid must fail cleanly at the
        facade (InvalidMotionError), not leak index internals or leave
        partial state behind."""
        db = MotionDatabase(1000.0, 0.16, 1.66)
        db.register(1, 100.0, 1.0, 0.0)
        with pytest.raises(InvalidMotionError):
            db.register(1, 200.0, -1.0, 5.0)
        # Original motion untouched; exactly one copy indexed.
        assert len(db) == 1
        assert db.location_of(1, 10.0) == 110.0
        assert db.snapshot_at(0.0, 1000.0, 10.0) == {1}
        # report() is the way to supersede a motion.
        db.report(1, 200.0, -1.0, 5.0)
        assert db.location_of(1, 10.0) == 195.0

    def test_duplicate_register_with_history_keeps_clock(self):
        """With history enabled the failed register must not advance
        the archive clock (previously the duplicate reached the index
        after the clock moved)."""
        db = MotionDatabase(1000.0, 0.16, 1.66, keep_history=True)
        db.register(1, 100.0, 1.0, 0.0)
        with pytest.raises(InvalidMotionError):
            db.register(1, 300.0, 1.0, 50.0)
        # An update at an earlier time must still be accepted: the
        # rejected register left no trace in the time discipline.
        db.report(1, 120.0, 1.0, 20.0)
        assert db.query_past(100.0, 121.0, 0.0, 20.0) == {1}

    def test_slow_objects_accepted(self):
        db = MotionDatabase(1000.0, 0.16, 1.66)
        db.register(1, 500.0, 0.0, 0.0)  # parked car
        assert db.snapshot_at(499.0, 501.0, 100.0) == {1}


@pytest.mark.parametrize("method", ["forest", "kdtree"])
class TestQueries:
    def test_within_matches_brute_force(self, method):
        rng = random.Random(5)
        db = MotionDatabase(1000.0, 0.16, 1.66, method=method)
        objects = populate(db, rng)
        for _ in range(20):
            y1 = rng.uniform(0, 900)
            t1 = rng.uniform(10, 50)
            from repro.core import MORQuery1D

            query = MORQuery1D(y1, y1 + 80, t1, t1 + 30)
            assert db.within(y1, y1 + 80, t1, t1 + 30) == brute_force_1d(
                objects, query
            )

    def test_nearest(self, method):
        rng = random.Random(6)
        db = MotionDatabase(1000.0, 0.16, 1.66, method=method)
        objects = populate(db, rng)
        got = db.nearest(500.0, 30.0, k=5)
        expected = brute_force_knn(objects, 500.0, 30.0, 5)
        assert [oid for oid, _ in got] == [oid for oid, _ in expected]

    def test_proximity_pairs(self, method):
        rng = random.Random(7)
        db = MotionDatabase(1000.0, 0.16, 1.66, method=method)
        populate(db, rng, n=60)
        pairs = db.proximity_pairs(2.0, 10.0, 30.0)
        for a, b in pairs:
            assert a < b
        # Sanity: pairs actually get close.
        for a, b in list(pairs)[:5]:
            gap = min(
                abs(db.location_of(a, t) - db.location_of(b, t))
                for t in [10 + i * 0.5 for i in range(41)]
            )
            assert gap < 3.0


class TestHistory:
    def test_past_queries(self):
        db = MotionDatabase(1000.0, 0.16, 1.66, keep_history=True)
        db.register(1, 100.0, 1.0, 0.0)
        db.report(1, 150.0, -1.0, 50.0)
        assert db.query_past(115.0, 135.0, 20.0, 30.0) == {1}
        assert db.query_past(300.0, 400.0, 20.0, 30.0) == set()
        # Live queries use the current motion.
        assert db.snapshot_at(95.0, 105.0, 95.0) == {1}

    def test_history_disabled_raises(self):
        db = MotionDatabase(1000.0, 0.16, 1.66)
        db.register(1, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidMotionError):
            db.query_past(0.0, 10.0, 0.0, 1.0)

    def test_deregister_keeps_history(self):
        db = MotionDatabase(1000.0, 0.16, 1.66, keep_history=True)
        db.register(1, 100.0, 1.0, 0.0)
        db.report(1, 150.0, 1.0, 50.0)
        db.deregister(1)
        assert len(db) == 0
        assert db.query_past(100.0, 160.0, 0.0, 49.0) == {1}


class TestAccounting:
    def test_io_accounting(self):
        db = MotionDatabase(1000.0, 0.16, 1.66)
        rng = random.Random(8)
        populate(db, rng, n=50)
        assert db.pages_in_use > 0
        db.clear_buffers()
        snap = db.io_snapshot()
        db.within(0.0, 500.0, 10.0, 40.0)
        assert db.io_cost_since(snap) > 0


class TestCustomFactory:
    def test_index_factory_override(self):
        from repro.indexes import DualRTreeIndex

        db = MotionDatabase(
            1000.0, 0.16, 1.66,
            index_factory=lambda m: DualRTreeIndex(m, page_capacity=8),
        )
        rng = random.Random(10)
        objects = populate(db, rng, n=60)
        from repro.core import MORQuery1D

        query = MORQuery1D(200.0, 400.0, 10.0, 40.0)
        assert db.within(200.0, 400.0, 10.0, 40.0) == brute_force_1d(
            objects, query
        )


class TestHistoryBatch:
    def test_apply_batch_writes_the_archive_in_submission_order(self):
        """An insert, then an update and a delete at later times: the
        grouped flush (deletes, updates, inserts) once handed the
        archive the later times first, which its time-order check
        refused mid-batch.  The batch must equal the scalar calls."""
        ops = [RegisterOp(2, 300.0, 1.0, 19.0), ReportOp(1, 150.0, -1.0, 20.0),
               DeregisterOp(3)]
        batched, scalar = (
            MotionDatabase(1000.0, 0.16, 1.66, keep_history=True)
            for _ in range(2)
        )
        for db in (batched, scalar):
            db.register(1, 100.0, 1.0, 0.0)
            db.register(3, 500.0, 1.0, 5.0)
        assert batched.apply_batch(ops) == [None] * 3
        scalar.register(2, 300.0, 1.0, 19.0)
        scalar.report(1, 150.0, -1.0, 20.0)
        scalar.deregister(3)
        assert batched.history_snapshot() == scalar.history_snapshot()
        assert batched.motion_snapshot() == scalar.motion_snapshot()
        assert batched.query_past(0.0, 1000.0, 0.0, 20.0) == {1, 2, 3}


class TestBatchRefusals:
    @pytest.mark.parametrize("keep_history", [False, True])
    def test_an_unknown_op_applies_nothing(self, keep_history):
        """A batch holding something that is not a write op raises
        TypeError before any op of it lands.  Finding it mid-loop would
        leave the ops ahead of it in the catalog but never flushed: two
        ghosts the index did not hold, which the next register calls
        duplicates and the next deregister cannot find."""
        db = MotionDatabase(1000.0, 0.16, 1.66, keep_history=keep_history)
        db.register(7, 500.0, -1.0, 0.0)
        snapshot, io = db.motion_snapshot(), db.io_snapshot()
        with pytest.raises(TypeError, match="unknown write operation"):
            db.apply_batch([
                RegisterOp(1, 10.0, 1.0, 0.0),
                RegisterOp(2, 20.0, 1.0, 0.0),
                "bogus",
            ])
        assert len(db) == 1 and 1 not in db and 2 not in db
        assert db.motion_snapshot() == snapshot
        assert db.io_cost_since(io) == 0
        assert db.within(0.0, 1000.0, 0.0, 0.0) == {7}
        assert db.query_batch([Within(0.0, 1000.0, 0.0, 0.0)]) == [{7}]
        db.register(1, 10.0, 1.0, 0.0)
        db.deregister(1)
        assert db.apply_batch([RegisterOp(2, 20.0, 1.0, 0.0)]) == [None]
        assert db.within(0.0, 1000.0, 0.0, 0.0) == {2, 7}
