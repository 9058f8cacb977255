"""Tests for the §7 future-work extensions: kNN, joins, clustering, history."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearMotion1D, MORQuery1D, MobileObject1D, brute_force_1d
from repro.engine import MotionDatabase
from repro.errors import InvalidQueryError, ObjectNotFoundError
from repro.extensions import (
    KNNEngine,
    brute_force_distance_join,
    brute_force_knn,
    index_distance_join,
    knn_at,
    min_gap,
    pair_within,
    self_join_pairs,
)
from repro.indexes import DualKDTreeIndex, HoughYForestIndex

from .helpers import (
    PAPER_MODEL,
    banded_forest,
    random_objects,
    random_queries,
)


class TestKNN:
    def make_engine(self, n=200, seed=1):
        rng = random.Random(seed)
        engine = KNNEngine(DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8))
        objects = random_objects(rng, n)
        for obj in objects:
            engine.insert(obj)
        return engine, objects, rng

    def test_knn_matches_brute_force(self):
        engine, objects, rng = self.make_engine()
        for _ in range(25):
            y = rng.uniform(0, 1000)
            t = rng.uniform(100, 200)
            k = rng.randint(1, 12)
            got = engine.knn(y, t, k)
            expected = brute_force_knn(objects, y, t, k)
            assert [oid for oid, _ in got] == [oid for oid, _ in expected]

    def test_knn_with_updates(self):
        engine, objects, rng = self.make_engine(n=80, seed=2)
        replacement = MobileObject1D(
            0, LinearMotion1D(500.0, 1.0, 150.0)
        )
        engine.update(replacement)
        objects[0] = replacement
        got = engine.knn(500.0, 150.0, 1)
        assert got[0][0] == 0
        assert got[0][1] == 0.0

    def test_k_larger_than_population(self):
        engine, objects, _ = self.make_engine(n=5, seed=3)
        got = engine.knn(500.0, 120.0, 50)
        assert len(got) == 5

    def test_empty_population(self):
        engine = KNNEngine(DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8))
        assert engine.knn(0.0, 0.0, 3) == []

    def test_validation(self):
        engine, _, _ = self.make_engine(n=5, seed=4)
        with pytest.raises(InvalidQueryError):
            engine.knn(0.0, 0.0, 0)
        with pytest.raises(InvalidQueryError):
            knn_at(
                engine.index, engine._motions.__getitem__, 0.0, 0.0, 1,
                growth=1.0,
            )

    def test_delete_then_knn(self):
        engine, objects, rng = self.make_engine(n=30, seed=5)
        for obj in objects[:10]:
            engine.delete(obj.oid)
        got = engine.knn(500.0, 120.0, 5)
        assert all(oid >= 10 for oid, _ in got)


class TestMinGap:
    def test_crossing_pair_gap_zero(self):
        a = LinearMotion1D(0.0, 1.0)
        b = LinearMotion1D(10.0, -1.0)
        assert min_gap(a, b, 0.0, 10.0) == 0.0

    def test_diverging_pair(self):
        a = LinearMotion1D(0.0, 1.0)
        b = LinearMotion1D(10.0, 1.5)
        assert min_gap(a, b, 0.0, 10.0) == 10.0  # closest at t=0
        assert pair_within(a, b, 10.0, 0.0, 10.0)
        assert not pair_within(a, b, 9.9, 0.0, 10.0)

    def test_window_validation(self):
        a = LinearMotion1D(0.0, 1.0)
        with pytest.raises(InvalidQueryError):
            min_gap(a, a, 5.0, 1.0)

    def test_gap_min_inside_window(self):
        # They would cross at t=20, outside [0, 10]: min gap at t=10.
        a = LinearMotion1D(0.0, 1.0)
        b = LinearMotion1D(10.0, 0.5)
        assert min_gap(a, b, 0.0, 10.0) == pytest.approx(5.0)


class TestDistanceJoin:
    def test_index_join_matches_brute_force(self):
        rng = random.Random(11)
        objects = random_objects(rng, 120)
        index = HoughYForestIndex(PAPER_MODEL, c=4, leaf_capacity=16)
        motions = {}
        for obj in objects:
            index.insert(obj)
            motions[obj.oid] = obj.motion
        outer = objects[:40]
        got = index_distance_join(
            outer, index, motions.__getitem__, d=5.0, t1=120.0, t2=150.0
        )
        expected = brute_force_distance_join(
            outer, objects, 5.0, 120.0, 150.0
        )
        assert got == expected

    def test_self_join_unordered_pairs(self):
        rng = random.Random(13)
        objects = random_objects(rng, 60)
        index = DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8)
        for obj in objects:
            index.insert(obj)
        pairs = self_join_pairs(objects, index, d=3.0, t1=100.0, t2=120.0)
        for a, b in pairs:
            assert a < b
        expected = {
            (min(a, b), max(a, b))
            for a, b in brute_force_distance_join(
                objects, objects, 3.0, 100.0, 120.0
            )
        }
        assert pairs == expected

    def test_negative_distance_rejected(self):
        index = DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8)
        with pytest.raises(InvalidQueryError):
            index_distance_join([], index, lambda o: None, -1.0, 0.0, 1.0)


class TestVelocityBandForest:
    """§7's velocity clustering lives in the forest's key order
    (``HoughYForestIndex.BAND_RATIO``); a subclass varies the ratio."""

    def test_matches_brute_force(self):
        rng = random.Random(17)
        objects = random_objects(rng, 250)
        index = banded_forest(2.2)(PAPER_MODEL, c=2, leaf_capacity=8)
        assert len(index.band_edges) - 1 == 3
        for obj in objects:
            index.insert(obj)
        assert len(index) == 250
        for query in random_queries(rng, 25):
            assert index.query(query) == brute_force_1d(objects, query)

    def test_clustering_reduces_false_positives(self):
        """The §7 clustering idea: per-band spreads shrink eq. (1)'s E."""
        rng = random.Random(19)
        objects = random_objects(rng, 400)
        queries = random_queries(rng, 40, yq_max=100.0, tw_max=40.0)
        waste = {}
        for bands, ratio in ((1, float("inf")), (4, 2.0)):
            index = banded_forest(ratio)(PAPER_MODEL, c=4, leaf_capacity=32)
            assert len(index.band_edges) - 1 == bands
            for obj in objects:
                index.insert(obj)
            fetched = exact = 0
            for query in queries:
                f, e = index.approximation_overhead(query)
                fetched += f
                exact += e
            waste[bands] = fetched - exact
        assert waste[4] < waste[1] / 2

    def test_validation_and_deletes(self):
        for ratio in (1.0, 0.5, float("nan")):
            with pytest.raises(ValueError):
                banded_forest(ratio)(PAPER_MODEL)
        index = banded_forest(4.0)(PAPER_MODEL, c=2, leaf_capacity=8)
        for oid, speed in enumerate(index.band_edges):  # one per band edge
            index.insert(MobileObject1D(oid, LinearMotion1D(10.0, speed)))
        for oid in range(len(index.band_edges)):
            index.delete(oid)
        assert len(index) == 0
        with pytest.raises(ObjectNotFoundError):
            index.delete(1)


class TestHistoricalIndex:
    """History over any index: a history database whose fast band is a
    small-leaf kd-tree."""

    def make(self):
        return MotionDatabase(
            PAPER_MODEL.terrain.y_max, PAPER_MODEL.v_min, PAPER_MODEL.v_max,
            keep_history=True,
            index_factory=lambda model: DualKDTreeIndex(model, leaf_capacity=8),
        )

    def test_live_queries_still_work(self):
        db = self.make()
        rng = random.Random(23)
        objects = random_objects(rng, 80, t0_max=10.0)
        for obj in objects:
            db.register(obj.oid, obj.motion.y0, obj.motion.v, obj.motion.t0)
        for query in random_queries(rng, 10, t_now=20.0):
            assert db.within(
                query.y1, query.y2, query.t1, query.t2
            ) == brute_force_1d(objects, query)

    def test_past_query_sees_superseded_motion(self):
        db = self.make()
        # Object 1 heads up from 100 at t=0, then reverses at t=50.
        db.register(1, 100.0, 1.0, 0.0)
        db.report(1, 150.0, -1.0, 50.0)
        # During [20, 30] it was around 120..130 (the OLD motion).
        assert db.query_past(115.0, 135.0, 20.0, 30.0) == {1}
        # The live index, extrapolating the new motion backwards, would
        # be wrong about the past — the archive is what answers.
        assert db.query_past(165.0, 185.0, 20.0, 30.0) == set()

    def test_past_query_clips_validity(self):
        db = self.make()
        db.register(1, 0.0, 1.0, 0.0)
        db.report(1, 0.0, 1.0, 40.0)
        # Old version valid [0, 40): it never reached y=80 while valid;
        # a past query about [75, 85] x [30, 39] must be empty even
        # though unbounded extrapolation would say yes at t=80.
        assert db.query_past(75.0, 85.0, 30.0, 39.0) == set()
        # But position 35 at t=35 was real.
        assert db.query_past(30.0, 40.0, 30.0, 39.0) == {1}

    def test_deleted_objects_remain_in_history(self):
        db = self.make()
        db.register(1, 500.0, 1.0, 0.0)
        db.restore_clock(30.0)  # a deregister closes at the clock
        db.deregister(1)
        assert len(db) == 0
        assert len(db.history_snapshot()) == 1
        assert db.query_past(495.0, 530.0, 0.0, 25.0) == {1}
        # After its deletion the object no longer exists.
        assert db.query_past(0.0, 1000.0, 31.0, 60.0) == set()

    def test_time_ordering_enforced(self):
        """Time order is per object: writes of different objects may
        come in any order, and a version superseded before it began is
        left out of the archive."""
        db = self.make()
        db.register(1, 0.0, 1.0, 100.0)
        # Behind object 1's time, but object 2 has no earlier version.
        db.register(2, 0.0, 1.0, 50.0)
        assert db.query_past(5.0, 25.0, 60.0, 70.0) == {2}
        # A report older than object 2's current motion: the version
        # that began at 50 ended at 40, so it never held.
        db.report(2, 500.0, 1.0, 40.0)
        assert len(db.history_snapshot()) == 0
        assert db.query_past(0.0, 20.0, 50.0, 60.0) == set()
        assert db.query_past(510.0, 530.0, 50.0, 60.0) == {2}
        # A later report closes the version that did hold, as usual.
        db.report(2, 0.0, 1.0, 120.0)
        assert len(db.history_snapshot()) == 1
        assert db.query_past(545.0, 555.0, 0.0, 200.0) == {2}
        with pytest.raises(ObjectNotFoundError):
            db.report(9, 0.0, 1.0, 200.0)
        with pytest.raises(ObjectNotFoundError):
            db.deregister(9)

    def test_past_matches_replayed_brute_force(self):
        """Archive answers equal a replay of the true motion history."""
        rng = random.Random(29)
        db = self.make()
        history = {}  # oid -> list of (t_from, motion)
        t = 0.0
        for oid in range(40):
            motion = LinearMotion1D(
                rng.uniform(0, 1000),
                rng.choice([-1, 1]) * rng.uniform(0.16, 1.66),
                t,
            )
            db.register(oid, motion.y0, motion.v, motion.t0)
            history[oid] = [(t, motion)]
        for step in range(60):
            t += 5.0
            oid = rng.randrange(40)
            motion = LinearMotion1D(
                rng.uniform(0, 1000),
                rng.choice([-1, 1]) * rng.uniform(0.16, 1.66),
                t,
            )
            db.report(oid, motion.y0, motion.v, motion.t0)
            history[oid].append((t, motion))
        horizon = t

        def replay(query):
            answer = set()
            for oid, versions in history.items():
                for i, (t_from, motion) in enumerate(versions):
                    t_to = (
                        versions[i + 1][0]
                        if i + 1 < len(versions)
                        else max(horizon, query.t2)
                    )
                    lo_t = max(query.t1, t_from)
                    hi_t = min(query.t2, t_to)
                    if lo_t > hi_t:
                        continue
                    lo = min(motion.position(lo_t), motion.position(hi_t))
                    hi = max(motion.position(lo_t), motion.position(hi_t))
                    if lo <= query.y2 and hi >= query.y1:
                        answer.add(oid)
                        break
            return answer

        for _ in range(25):
            y1 = rng.uniform(0, 900)
            t1 = rng.uniform(0, horizon - 20)
            query = MORQuery1D(
                y1, y1 + rng.uniform(5, 100), t1, t1 + rng.uniform(0, 20)
            )
            assert db.query_past(
                query.y1, query.y2, query.t1, query.t2
            ) == replay(query)
