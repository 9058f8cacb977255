"""Tests for rectangle geometry and the R*-tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvexRegion, HalfPlane
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.io_sim import DiskSimulator
from repro.rtree import Rect, RStarTree, bounding_rect

from .helpers import written_vs_changed


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_point_and_segment(self):
        p = Rect.point(3, 4)
        assert p.area == 0
        s = Rect.segment_mbr(5, 1, 2, 9)
        assert s == Rect(2, 1, 5, 9)

    def test_area_margin_center(self):
        r = Rect(0, 0, 4, 2)
        assert r.area == 8
        assert r.margin == 6
        assert r.center == (2, 1)

    def test_union_intersection(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 3, 3)
        assert a.union(b) == Rect(0, 0, 3, 3)
        assert a.intersection_area(b) == 1.0
        assert a.intersects(b)
        assert not a.intersects(Rect(5, 5, 6, 6))
        # Touching edges count as intersecting (closed rectangles).
        assert a.intersects(Rect(2, 0, 3, 1))
        assert a.intersection_area(Rect(2, 0, 3, 1)) == 0.0

    def test_containment(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert not outer.contains_rect(Rect(5, 5, 11, 6))
        assert outer.contains_point(10, 10)
        assert not outer.contains_point(10.1, 5)

    def test_enlargement(self):
        r = Rect(0, 0, 2, 2)
        assert r.enlargement(Rect(0, 0, 1, 1)) == 0.0
        assert r.enlargement(Rect(0, 0, 4, 2)) == 4.0

    def test_bounding_rect(self):
        rects = [Rect(0, 0, 1, 1), Rect(5, -2, 6, 0)]
        assert bounding_rect(rects) == Rect(0, -2, 6, 1)
        with pytest.raises(ValueError):
            bounding_rect([])


def random_rects(rng, n, span=1000.0, max_side=20.0):
    rects = []
    for _ in range(n):
        x = rng.uniform(0, span)
        y = rng.uniform(0, span)
        rects.append(
            Rect(x, y, x + rng.uniform(0, max_side), y + rng.uniform(0, max_side))
        )
    return rects


def make_tree(leaf_capacity=8, forced_reinsert=True, buffer_pages=4):
    disk = DiskSimulator(buffer_pages=buffer_pages)
    tree = RStarTree(
        disk, leaf_capacity, leaf_capacity, forced_reinsert=forced_reinsert
    )
    return tree, disk


class TestRStarTreeBasics:
    def test_empty(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.search_rect(Rect(0, 0, 1, 1)) == []
        tree.check_invariants()

    def test_insert_search_delete(self):
        tree, _ = make_tree()
        tree.insert(Rect.point(1, 1), "a")
        tree.insert(Rect.point(5, 5), "b")
        assert set(tree.search_rect(Rect(0, 0, 2, 2))) == {"a"}
        assert tree.rect_of("b") == Rect.point(5, 5)
        tree.delete("a")
        assert "a" not in tree
        assert tree.search_rect(Rect(0, 0, 10, 10)) == ["b"]

    def test_duplicate_rejected(self):
        tree, _ = make_tree()
        tree.insert(Rect.point(1, 1), "a")
        with pytest.raises(DuplicateObjectError):
            tree.insert(Rect.point(2, 2), "a")

    def test_delete_missing(self):
        tree, _ = make_tree()
        with pytest.raises(ObjectNotFoundError):
            tree.delete("ghost")
        with pytest.raises(ObjectNotFoundError):
            tree.rect_of("ghost")

    def test_capacity_validation(self):
        disk = DiskSimulator()
        with pytest.raises(ValueError):
            RStarTree(disk, leaf_capacity=2)


class TestRStarTreeBulk:
    @pytest.mark.parametrize("forced_reinsert", [True, False])
    def test_bulk_insert_queries_match_brute_force(self, forced_reinsert):
        tree, _ = make_tree(leaf_capacity=8, forced_reinsert=forced_reinsert)
        rng = random.Random(17)
        rects = random_rects(rng, 400)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.check_invariants()
        assert tree.height >= 3
        for _ in range(40):
            q = random_rects(rng, 1, span=900, max_side=150)[0]
            expected = {i for i, r in enumerate(rects) if r.intersects(q)}
            assert set(tree.search_rect(q)) == expected

    def test_churn_with_deletions(self):
        tree, _ = make_tree(leaf_capacity=8)
        rng = random.Random(23)
        live = {}
        next_id = 0
        for step in range(1200):
            if live and rng.random() < 0.45:
                oid = rng.choice(list(live))
                tree.delete(oid)
                del live[oid]
            else:
                rect = random_rects(rng, 1)[0]
                tree.insert(rect, next_id)
                live[next_id] = rect
                next_id += 1
            if step % 200 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == len(live)
        q = Rect(100, 100, 400, 400)
        expected = {oid for oid, r in live.items() if r.intersects(q)}
        assert set(tree.search_rect(q)) == expected

    def test_delete_everything(self):
        tree, disk = make_tree(leaf_capacity=8)
        rng = random.Random(31)
        rects = random_rects(rng, 250)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        order = list(range(250))
        rng.shuffle(order)
        for i in order:
            tree.delete(i)
        assert len(tree) == 0
        assert tree.height == 1
        assert disk.pages_in_use == 1
        tree.check_invariants()


class TestLinearConstraintSearch:
    def make_wedge(self):
        # v in [0.5, 2], a + v >= 1, a - v <= 1 : a wedge like Prop. 1's.
        return ConvexRegion(
            (
                HalfPlane(-1, 0, -0.5),
                HalfPlane(1, 0, 2.0),
                HalfPlane(-1, -1, -1.0),
                HalfPlane(-1, 1, 1.0),
            )
        )

    def test_region_search_finds_all_contained_points(self):
        tree, _ = make_tree(leaf_capacity=8)
        rng = random.Random(5)
        wedge = self.make_wedge()
        points = [
            (rng.uniform(0, 3), rng.uniform(-3, 3)) for _ in range(500)
        ]
        for i, (v, a) in enumerate(points):
            tree.insert(Rect.point(v, a), i)
        candidates = {
            oid
            for rect, oid in tree.search_region(wedge)
            if wedge.contains(rect.lo_x, rect.lo_y)
        }
        expected = {i for i, (v, a) in enumerate(points) if wedge.contains(v, a)}
        assert candidates == expected

    def test_region_search_prunes(self):
        tree, disk = make_tree(leaf_capacity=8, buffer_pages=0)
        rng = random.Random(6)
        # All points far outside the wedge's velocity band.
        for i in range(400):
            tree.insert(Rect.point(rng.uniform(10, 20), rng.uniform(0, 1)), i)
        disk.clear_buffer()
        before = disk.stats.snapshot()
        assert tree.search_region(self.make_wedge()) == []
        delta = disk.stats.snapshot() - before
        assert delta.reads <= 1  # only the root is touched


class TestForcedReinsert:
    def test_reinsertion_happens_and_preserves_contents(self):
        tree, _ = make_tree(leaf_capacity=8, forced_reinsert=True)
        # Insert clustered points to force overflows.
        rng = random.Random(9)
        pts = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(200)]
        for i, (x, y) in enumerate(pts):
            tree.insert(Rect.point(x, y), i)
        tree.check_invariants()
        assert len(tree.items()) == 200

    def test_reinsert_improves_or_matches_query_io(self):
        """R* forced reinsert should not make queries meaningfully worse."""
        rng = random.Random(13)
        rects = random_rects(rng, 600, span=1000, max_side=5)
        ios = {}
        for reinsert in (True, False):
            tree, disk = make_tree(leaf_capacity=8, forced_reinsert=reinsert)
            for i, rect in enumerate(rects):
                tree.insert(rect, i)
            disk.clear_buffer()
            before = disk.stats.snapshot()
            for k in range(20):
                tree.search_rect(Rect(k * 40, k * 40, k * 40 + 100, k * 40 + 100))
            ios[reinsert] = (disk.stats.snapshot() - before).reads
        assert ios[True] <= ios[False] * 1.5


@settings(max_examples=25, deadline=None)
@given(
    coords=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    ),
    query=st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    ),
)
def test_property_window_query_matches_brute_force(coords, query):
    tree, _ = make_tree(leaf_capacity=4)
    for i, (x, y) in enumerate(coords):
        tree.insert(Rect.point(x, y), i)
    qx, qy, w, h = query
    window = Rect(qx, qy, qx + w, qy + h)
    expected = {
        i for i, (x, y) in enumerate(coords) if window.contains_point(x, y)
    }
    assert set(tree.search_rect(window)) == expected
    tree.check_invariants()


@pytest.mark.parametrize("leaf_capacity", [4, 8, 25])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_a_page_is_written_iff_it_changed(leaf_capacity, seed):
    """Insert and delete under the written ≡ changed audit, through
    splits, forced reinserts, dissolved nodes and root changes.  One
    unchanged write has no cheap remedy: a forced reinsert that evicts
    exactly the entry that had just arrived writes its node back as it
    was; the entry then returns to that node and splits it, so an
    operation may waste as many writes as it allocates pages."""
    rng = random.Random(seed)
    tree, disk = make_tree(leaf_capacity)
    live = []

    def audited(operation, *args):
        allocated = disk.pages_allocated
        with written_vs_changed(disk) as audit:
            operation(*args)
        assert not audit.missed
        assert len(audit.wasted) <= disk.pages_allocated - allocated

    rects = iter(random_rects(rng, 600))
    for oid in range(600):
        if live and (oid > 250 and rng.random() < 0.5):
            audited(tree.delete, live.pop(rng.randrange(len(live))))
        else:
            audited(tree.insert, next(rects), oid)
            live.append(oid)
    while live:
        audited(tree.delete, live.pop(rng.randrange(len(live))))
    tree.check_invariants()
    assert disk.pages_in_use == 1
