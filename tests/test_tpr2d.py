"""Unit tests for the planar TPR-tree and MovingBox geometry."""

import random

import pytest

from repro.core import LinearMotion2D, MORQuery2D, MobileObject2D, Terrain2D
from repro.core import brute_force_2d
from repro.errors import DuplicateObjectError, ObjectNotFoundError
from repro.twod import PlanarModel, PlanarTPRTreeIndex
from repro.twod.tpr2d import MovingBox

MODEL = PlanarModel(Terrain2D(1000.0, 1000.0), v_max=2.0)


def motion(x0, y0, vx, vy, t0=0.0):
    return LinearMotion2D(x0, y0, vx, vy, t0)


class TestMovingBox:
    def test_of_motion_is_a_point(self):
        box = MovingBox.of_motion(motion(10, 20, 1.0, -0.5), t_ref=0.0)
        assert box.x.bounds_at(0.0) == (10.0, 10.0)
        assert box.y.bounds_at(10.0) == (15.0, 15.0)

    def test_union_conservative_both_axes(self):
        a = MovingBox.of_motion(motion(0, 0, 1.0, 1.0), 0.0)
        b = MovingBox.of_motion(motion(100, 50, -1.0, 2.0), 0.0)
        u = a.union(b)
        for t in (0.0, 10.0, 100.0):
            for child in (a, b):
                for axis in ("x", "y"):
                    c_lo, c_hi = getattr(child, axis).bounds_at(t)
                    u_lo, u_hi = getattr(u, axis).bounds_at(t)
                    assert u_lo <= c_lo and c_hi <= u_hi

    def test_may_meet_requires_simultaneity(self):
        # Passes the x-range during [0, 10] and the y-range during
        # [20, 30]: the box (a point here) must NOT meet the query.
        box = MovingBox.of_motion(motion(0, -20, 1.0, 1.0), 0.0)
        assert not box.may_meet(MORQuery2D(0, 10, 0, 10, 0, 30))
        # Slow x keeps the windows overlapping.
        slow = MovingBox.of_motion(motion(0, -20, 0.2, 1.0), 0.0)
        assert slow.may_meet(MORQuery2D(0, 10, 0, 10, 0, 30))

    def test_area(self):
        a = MovingBox.of_motion(motion(0, 0, 1.0, 1.0), 0.0)
        b = MovingBox.of_motion(motion(10, 10, -1.0, -1.0), 0.0)
        u = a.union(b)
        assert u.area_at(0.0) == pytest.approx(100.0)
        # Bounds converge, cross and re-diverge; area stays >= 0.
        assert u.area_at(5.0) >= 0.0


class TestPlanarTPRTree:
    def test_matches_brute_force_static(self):
        rng = random.Random(61)
        objects = [
            MobileObject2D(
                oid,
                motion(
                    rng.uniform(0, 1000), rng.uniform(0, 1000),
                    rng.uniform(-2, 2), rng.uniform(-2, 2),
                    rng.uniform(0, 20),
                ),
            )
            for oid in range(250)
        ]
        tpr = PlanarTPRTreeIndex(MODEL, page_capacity=8)
        for obj in objects:
            tpr.insert(obj)
        for _ in range(25):
            x1 = rng.uniform(0, 850)
            y1 = rng.uniform(0, 850)
            t1 = 20 + rng.uniform(0, 40)
            query = MORQuery2D(x1, x1 + 150, y1, y1 + 150, t1, t1 + 20)
            assert tpr.query(query) == brute_force_2d(objects, query)

    def test_errors_and_capacity(self):
        tpr = PlanarTPRTreeIndex(MODEL, page_capacity=8)
        obj = MobileObject2D(1, motion(1, 1, 1.0, 1.0))
        tpr.insert(obj)
        with pytest.raises(DuplicateObjectError):
            tpr.insert(obj)
        with pytest.raises(ObjectNotFoundError):
            tpr.delete(2)
        with pytest.raises(ValueError):
            PlanarTPRTreeIndex(MODEL, page_capacity=2)

    def test_delete_everything(self):
        rng = random.Random(67)
        tpr = PlanarTPRTreeIndex(MODEL, page_capacity=8)
        for oid in range(120):
            tpr.insert(
                MobileObject2D(
                    oid,
                    motion(
                        rng.uniform(0, 1000), rng.uniform(0, 1000),
                        rng.uniform(-2, 2), rng.uniform(-2, 2),
                    ),
                )
            )
        order = list(range(120))
        rng.shuffle(order)
        for oid in order:
            tpr.delete(oid)
        assert len(tpr) == 0
        assert tpr.pages_in_use == 1

    def test_invariants_hold(self):
        rng = random.Random(71)

        def random_object(oid, t0):
            return MobileObject2D(
                oid,
                motion(
                    rng.uniform(0, 1000), rng.uniform(0, 1000),
                    rng.uniform(-2, 2), rng.uniform(-2, 2), t0,
                ),
            )

        tpr = PlanarTPRTreeIndex(MODEL, page_capacity=8)
        for oid in range(200):
            tpr.insert(random_object(oid, rng.uniform(0, 10)))
        tpr.check_invariants()
        # An update storm: later anchors rebase and tighten the bounds.
        for step in range(400):
            tpr.update(random_object(rng.randrange(200), 10.0 + step * 0.1))
        tpr.check_invariants()
        for oid in rng.sample(range(200), 200):
            tpr.delete(oid)
        tpr.check_invariants()
        assert len(tpr) == 0
        assert tpr.pages_in_use == 1
