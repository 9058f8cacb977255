"""Tests for the slow-object store, the hybrid split and the MOR1 adapter."""

import random

import pytest

from repro.core import (
    LinearMotion1D,
    MOR1Query,
    MORQuery1D,
    MobileObject1D,
    MotionModel,
    Terrain1D,
    brute_force_1d,
    brute_force_mor1,
)
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    InvalidQueryError,
    ObjectNotFoundError,
)
from repro.indexes import (
    DualKDTreeIndex,
    HybridIndex,
    MOR1AdapterIndex,
    SlowObjectIndex,
)

from .helpers import PAPER_MODEL, random_objects, random_queries


def slow_objects(rng, n, v_slow=0.16, t0_max=50.0):
    objects = []
    for oid in range(n):
        objects.append(
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, 1000),
                    rng.uniform(-v_slow, v_slow),
                    rng.uniform(0, t0_max),
                ),
            )
        )
    return objects


class TestSlowObjectIndex:
    def test_matches_brute_force(self):
        rng = random.Random(7)
        index = SlowObjectIndex(PAPER_MODEL, leaf_capacity=8)
        objects = slow_objects(rng, 200)
        for obj in objects:
            index.insert(obj)
        for query in random_queries(rng, 30, t_now=100.0):
            assert index.query(query) == brute_force_1d(objects, query)

    def test_rejects_fast_motion(self):
        index = SlowObjectIndex(PAPER_MODEL)
        with pytest.raises(InvalidMotionError):
            index.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0)))

    def test_duplicate_and_missing(self):
        index = SlowObjectIndex(PAPER_MODEL, leaf_capacity=8)
        index.insert(MobileObject1D(1, LinearMotion1D(5.0, 0.01)))
        with pytest.raises(DuplicateObjectError):
            index.insert(MobileObject1D(1, LinearMotion1D(9.0, 0.0)))
        with pytest.raises(ObjectNotFoundError):
            index.delete(2)

    def test_stationary_objects(self):
        index = SlowObjectIndex(PAPER_MODEL, leaf_capacity=8)
        index.insert(MobileObject1D(1, LinearMotion1D(100.0, 0.0)))
        hit = MORQuery1D(90.0, 110.0, 1e6, 1e6)  # far future: still there
        assert index.query(hit) == {1}

    def test_reanchoring_keeps_answers_exact(self):
        """Queries far beyond the drift budget trigger a re-anchor and
        must stay exact before and after."""
        rng = random.Random(8)
        index = SlowObjectIndex(PAPER_MODEL, leaf_capacity=8)
        objects = slow_objects(rng, 120)
        for obj in objects:
            index.insert(obj)
        t_ref_before = index.t_ref
        io_before = index.snapshot()
        # Drift budget is y_max/20 = 50 units at v_slow = 0.16:
        # ~312 time units. Query at t = 5000 forces a re-anchor.
        for query in random_queries(rng, 10, t_now=5000.0):
            assert index.query(query) == brute_force_1d(objects, query)
        assert index.t_ref != t_ref_before
        # The rebuild moved to a fresh disk; the counters went with it
        # and booked every page it packed.
        assert index.io_delta_since(io_before).writes >= index.pages_in_use
        # And churn after the re-anchor still works.
        for oid in list(range(0, 120, 3)):
            index.delete(oid)
        survivors = [o for o in objects if o.oid % 3 != 0]
        for query in random_queries(rng, 10, t_now=5100.0):
            assert index.query(query) == brute_force_1d(survivors, query)


class TestHybridIndex:
    def make(self):
        return HybridIndex(
            PAPER_MODEL,
            fast_factory=lambda m: DualKDTreeIndex(m, leaf_capacity=8),
        )

    def test_full_speed_range_matches_brute_force(self):
        rng = random.Random(9)
        hybrid = self.make()
        movers = random_objects(rng, 120)
        slows = [
            MobileObject1D(1000 + o.oid, o.motion)
            for o in slow_objects(rng, 60)
        ]
        population = movers + slows
        for obj in population:
            hybrid.insert(obj)
        assert len(hybrid) == 180
        for query in random_queries(rng, 25, t_now=120.0):
            assert hybrid.query(query) == brute_force_1d(population, query)

    def test_band_routing_and_deletion(self):
        hybrid = self.make()
        hybrid.insert(MobileObject1D(1, LinearMotion1D(10.0, 1.0)))
        hybrid.insert(MobileObject1D(2, LinearMotion1D(20.0, 0.0)))
        assert hybrid._band == {1: "fast", 2: "slow"}
        hybrid.delete(1)
        hybrid.delete(2)
        assert len(hybrid) == 0
        with pytest.raises(ObjectNotFoundError):
            hybrid.delete(1)

    def test_rejects_overspeed_and_duplicates(self):
        hybrid = self.make()
        with pytest.raises(InvalidMotionError):
            hybrid.insert(MobileObject1D(1, LinearMotion1D(0.0, 99.0)))
        hybrid.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0)))
        with pytest.raises(DuplicateObjectError):
            hybrid.insert(MobileObject1D(1, LinearMotion1D(0.0, 0.0)))

    def test_update_may_switch_bands(self):
        hybrid = self.make()
        hybrid.insert(MobileObject1D(1, LinearMotion1D(10.0, 1.0)))
        hybrid.update(MobileObject1D(1, LinearMotion1D(50.0, 0.01, 5.0)))
        assert hybrid._band[1] == "slow"
        assert hybrid.query(MORQuery1D(45.0, 55.0, 5.0, 6.0)) == {1}

    def test_empty_store_costs_no_page(self):
        """A store holding nothing is not descended into; the first
        object it takes is found."""
        rng = random.Random(10)
        hybrid = self.make()
        movers = random_objects(rng, 60)
        for obj in movers:
            hybrid.insert(obj)
        queries = random_queries(rng, 10, t_now=120.0)
        (slow_disk,) = hybrid._slow.disks
        before = slow_disk.stats.snapshot()
        for query in queries:
            hybrid.clear_buffers()
            assert hybrid.query(query) == brute_force_1d(movers, query)
        assert (slow_disk.stats.snapshot() - before).reads == 0

        parked = MobileObject1D(1000, LinearMotion1D(500.0, 0.0, 100.0))
        hybrid.insert(parked)
        for query in queries + [MORQuery1D(499.0, 501.0, 130.0, 140.0)]:
            hybrid.clear_buffers()
            assert hybrid.query(query) == brute_force_1d(
                movers + [parked], query
            )
        assert (slow_disk.stats.snapshot() - before).reads > 0

        for obj in movers:
            hybrid.delete(obj.oid)
        fast_before = [disk.stats.snapshot() for disk in hybrid._fast.disks]
        hybrid.clear_buffers()
        assert hybrid.query(MORQuery1D(499.0, 501.0, 130.0, 140.0)) == {1000}
        assert all(
            (disk.stats.snapshot() - was).reads == 0
            for disk, was in zip(hybrid._fast.disks, fast_before)
        )

    def test_pages_and_buffers(self):
        hybrid = self.make()
        hybrid.insert(MobileObject1D(1, LinearMotion1D(10.0, 1.0)))
        assert hybrid.pages_in_use > 0
        hybrid.clear_buffers()


class TestMOR1Adapter:
    def test_instant_queries_match_brute_force(self):
        rng = random.Random(11)
        adapter = MOR1AdapterIndex(PAPER_MODEL, window=100.0)
        objects = random_objects(rng, 100, t0_max=0.0)
        for obj in objects:
            adapter.insert(obj)
        for _ in range(15):
            t = rng.uniform(0, 250)
            y1 = rng.uniform(0, 900)
            query = MOR1Query(y1, y1 + 100, t)
            assert adapter.query_instant(query) == brute_force_mor1(
                objects, query
            )

    def test_window_queries_rejected(self):
        adapter = MOR1AdapterIndex(PAPER_MODEL, window=50.0)
        adapter.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0, 0.0)))
        with pytest.raises(InvalidQueryError):
            adapter.query(MORQuery1D(0, 10, 5.0, 6.0))
        # Degenerate windows are fine.
        assert adapter.query(MORQuery1D(0, 10, 5.0, 5.0)) == {1}

    def test_updates_invalidate_windows(self):
        adapter = MOR1AdapterIndex(PAPER_MODEL, window=50.0)
        adapter.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0, 0.0)))
        assert adapter.query(MORQuery1D(0, 20, 10.0, 10.0)) == {1}
        assert adapter.built_windows  # a window was materialised
        adapter.update(MobileObject1D(1, LinearMotion1D(500.0, 1.0, 0.0)))
        assert adapter.built_windows == []  # invalidated
        assert adapter.query(MORQuery1D(0, 20, 10.0, 10.0)) == set()
        assert adapter.query(MORQuery1D(505.0, 515.0, 10.0, 10.0)) == {1}

    def test_empty_population(self):
        adapter = MOR1AdapterIndex(PAPER_MODEL, window=50.0)
        assert adapter.query(MORQuery1D(0, 10, 5.0, 5.0)) == set()
        assert len(adapter) == 0
        assert adapter.pages_in_use == 0

    def test_errors(self):
        adapter = MOR1AdapterIndex(PAPER_MODEL, window=50.0)
        adapter.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0, 0.0)))
        with pytest.raises(DuplicateObjectError):
            adapter.insert(MobileObject1D(1, LinearMotion1D(0.0, 1.0, 0.0)))
        with pytest.raises(ObjectNotFoundError):
            adapter.delete(9)
        with pytest.raises(InvalidMotionError):
            adapter.insert(MobileObject1D(2, LinearMotion1D(0.0, 0.0, 0.0)))
