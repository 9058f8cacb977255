"""Conformance tests: every 1-D index answers MOR queries exactly.

Each method from the paper's performance study is run against the
brute-force oracle on the same random population, through inserts,
queries, updates and deletes.
"""

import random

import pytest

from repro.core import (
    LinearMotion1D,
    MOR1Query,
    MORQuery1D,
    MobileObject1D,
    brute_force_1d,
)
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.indexes import (
    INDEX_REGISTRY,
    DualKDTreeIndex,
    DualRTreeIndex,
    HoughYForestIndex,
    HybridIndex,
    NaiveScanIndex,
    PaperForestIndex,
    RotatingIndex,
    SegmentRTreeIndex,
)
from repro.indexes.partition_index import PartitionTreeIndex
from repro.indexes.tpr import TPRTreeIndex

from .helpers import PAPER_MODEL, random_objects, random_queries

# Small capacities force multi-level trees even with few objects.
FACTORIES = {
    "naive-scan": lambda: NaiveScanIndex(PAPER_MODEL, page_capacity=16),
    "segment-rstar": lambda: SegmentRTreeIndex(PAPER_MODEL, page_capacity=8),
    "dual-kdtree": lambda: DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8),
    "dual-rstar": lambda: DualRTreeIndex(PAPER_MODEL, page_capacity=8),
    "hough-y-forest-c2": lambda: HoughYForestIndex(
        PAPER_MODEL, c=2, leaf_capacity=8
    ),
    "hough-y-forest-c4": lambda: HoughYForestIndex(
        PAPER_MODEL, c=4, leaf_capacity=8
    ),
    "hough-y-forest-c8": lambda: HoughYForestIndex(
        PAPER_MODEL, c=8, leaf_capacity=8
    ),
    "hough-y-forest-paper": lambda: PaperForestIndex(
        PAPER_MODEL, c=4, leaf_capacity=8
    ),
    "partition-tree": lambda: PartitionTreeIndex(
        PAPER_MODEL, leaf_capacity=8, internal_capacity=16
    ),
    "rotating-kdtree": lambda: RotatingIndex(
        PAPER_MODEL,
        factory=lambda t_ref: DualKDTreeIndex(
            PAPER_MODEL, t_ref=t_ref, leaf_capacity=8
        ),
    ),
    "tpr-tree": lambda: TPRTreeIndex(PAPER_MODEL, page_capacity=8),
    "hybrid-kdtree": lambda: HybridIndex(
        PAPER_MODEL,
        fast_factory=lambda m: DualKDTreeIndex(m, leaf_capacity=8),
    ),
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def index(request):
    return FACTORIES[request.param]()


class TestConformance:
    def test_queries_match_brute_force(self, index):
        rng = random.Random(101)
        objects = random_objects(rng, 300)
        for obj in objects:
            index.insert(obj)
        assert len(index) == 300
        for query in random_queries(rng, 30):
            assert index.query(query) == brute_force_1d(objects, query)

    def test_narrow_and_wide_queries(self, index):
        """Both branches of the forest's case analysis get exercised."""
        rng = random.Random(103)
        objects = random_objects(rng, 200)
        for obj in objects:
            index.insert(obj)
        narrow = random_queries(rng, 15, yq_max=10.0, tw_max=20.0)
        wide = random_queries(rng, 15, yq_max=700.0, tw_max=60.0)
        for query in narrow + wide:
            assert index.query(query) == brute_force_1d(objects, query)

    def test_instant_queries(self, index):
        """Degenerate windows (t1 == t2) are the MOR1 special case."""
        rng = random.Random(107)
        objects = random_objects(rng, 150)
        for obj in objects:
            index.insert(obj)
        for _ in range(15):
            t = rng.uniform(100, 160)
            y1 = rng.uniform(0, 900)
            query = MOR1Query(y1, y1 + 100, t).as_mor()
            assert index.query(query) == brute_force_1d(objects, query)

    def test_updates_and_deletes(self, index):
        rng = random.Random(109)
        objects = {obj.oid: obj for obj in random_objects(rng, 150)}
        for obj in objects.values():
            index.insert(obj)
        # Update half of the population with fresh motion.
        for oid in list(objects)[::2]:
            speed = rng.uniform(PAPER_MODEL.v_min, PAPER_MODEL.v_max)
            direction = 1 if rng.random() < 0.5 else -1
            new = MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, 1000), direction * speed, t0=120.0
                ),
            )
            index.update(new)
            objects[oid] = new
        # Delete a third of them.
        for oid in list(objects)[::3]:
            index.delete(oid)
            del objects[oid]
        assert len(index) == len(objects)
        for query in random_queries(rng, 20, t_now=130.0):
            assert index.query(query) == brute_force_1d(
                objects.values(), query
            )

    def test_duplicate_insert_rejected(self, index):
        obj = MobileObject1D(1, LinearMotion1D(500.0, 1.0, 0.0))
        index.insert(obj)
        with pytest.raises(DuplicateObjectError):
            index.insert(obj)

    def test_delete_missing_rejected(self, index):
        with pytest.raises(ObjectNotFoundError):
            index.delete(999)

    def test_out_of_band_motion_rejected(self, index):
        with pytest.raises(InvalidMotionError):
            index.insert(MobileObject1D(1, LinearMotion1D(500.0, 99.0, 0.0)))
        if isinstance(index, HybridIndex):
            # The hybrid accepts the slow band by design (paper §3 split).
            index.insert(MobileObject1D(2, LinearMotion1D(500.0, 0.0, 0.0)))
            assert len(index) == 1
        else:
            with pytest.raises(InvalidMotionError):
                index.insert(MobileObject1D(2, LinearMotion1D(500.0, 0.0, 0.0)))

    def test_empty_index_queries(self, index):
        assert index.query(MORQuery1D(0, 1000, 0, 100)) == set()
        assert len(index) == 0
        assert index.pages_in_use >= 0


class TestRegistry:
    def test_all_methods_registered(self):
        for name in (
            "naive-scan",
            "segment-rstar",
            "dual-kdtree",
            "dual-rstar",
            "hough-y-forest",
        ):
            assert name in INDEX_REGISTRY


class TestForestSpecifics:
    def test_c_validation(self):
        with pytest.raises(ValueError):
            HoughYForestIndex(PAPER_MODEL, c=0)

    def test_space_grows_with_c(self):
        rng = random.Random(113)
        objects = random_objects(rng, 200)
        pages = {}
        for c in (2, 4, 8):
            forest = HoughYForestIndex(PAPER_MODEL, c=c, leaf_capacity=16)
            for obj in objects:
                forest.insert(obj)
            pages[c] = forest.pages_in_use
        assert pages[2] < pages[4] < pages[8]

    def test_approximation_error_shrinks_with_c(self):
        """More observation indexes => fewer false positives (eq. 2)."""
        rng = random.Random(127)
        objects = random_objects(rng, 400)
        queries = random_queries(rng, 40, yq_max=100.0, tw_max=40.0)
        waste = {}
        for c in (2, 8):
            forest = HoughYForestIndex(PAPER_MODEL, c=c, leaf_capacity=32)
            for obj in objects:
                forest.insert(obj)
            fetched = exact = 0
            for query in queries:
                if query.y_extent > 1000.0 / c:
                    continue
                f, e = forest.approximation_overhead(query)
                fetched += f
                exact += e
            waste[c] = fetched - exact
        assert waste[8] <= waste[2]

    def test_update_cost_scales_with_c(self):
        rng = random.Random(131)
        objects = random_objects(rng, 200)
        cost = {}
        for c in (2, 8):
            forest = HoughYForestIndex(PAPER_MODEL, c=c, leaf_capacity=16)
            for obj in objects:
                forest.insert(obj)
            snap = forest.snapshot()
            for obj in objects[:50]:
                replacement = MobileObject1D(
                    obj.oid, LinearMotion1D(500.0, 1.0, 150.0)
                )
                forest.update(replacement)
            cost[c] = forest.io_cost_since(snap)
        assert cost[8] > cost[2]


class TestNaiveHeapFile:
    def test_emptied_pages_are_freed(self):
        index = NaiveScanIndex(PAPER_MODEL, page_capacity=2)
        objects = random_objects(random.Random(7), 6)
        for obj in objects:
            index.insert(obj)
        pages_full = index.pages_in_use
        # Empty the first page entirely (oids 0 and 1 share it).
        index.delete(0)
        index.delete(1)
        assert index.pages_in_use < pages_full
        query = MORQuery1D(0, 1000, 100, 160)
        assert index.query(query) == brute_force_1d(objects[2:], query)
