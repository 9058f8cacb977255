"""Tests for the dual transforms and query geometry (paper §3.1-3.2)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ConvexRegion,
    HalfPlane,
    LinearMotion1D,
    MORQuery1D,
    MotionModel,
    Terrain1D,
    approximation_area,
    approximation_area_bound,
    best_observation_horizon,
    hough_x,
    hough_y,
    hough_y_b_range,
    hough_y_matches,
    matches_1d,
    mor_wedge,
    observation_horizons,
    reflect_motion,
    reflect_query,
    residence_interval,
    subterrain_bounds,
    subterrain_of,
)
from repro.errors import InvalidMotionError

MODEL = MotionModel(Terrain1D(1000.0), v_min=0.16, v_max=1.66)


def motions(sign):
    """Hypothesis strategy for motions of one velocity sign inside the band."""
    return st.builds(
        LinearMotion1D,
        y0=st.floats(min_value=0, max_value=1000),
        v=st.floats(min_value=0.16, max_value=1.66).map(lambda v: sign * v),
        t0=st.floats(min_value=0, max_value=500),
    )


def queries():
    return st.builds(
        lambda y1, dy, t1, dt: MORQuery1D(y1, y1 + dy, t1, t1 + dt),
        y1=st.floats(min_value=0, max_value=900),
        dy=st.floats(min_value=0, max_value=150),
        t1=st.floats(min_value=500, max_value=600),
        dt=st.floats(min_value=0, max_value=60),
    )


class TestHoughX:
    def test_intercept_at_reference(self):
        motion = LinearMotion1D(y0=100.0, v=2.0, t0=10.0)
        v, a = hough_x(motion, t_ref=0.0)
        assert v == 2.0
        assert a == 80.0  # y at t=0
        v2, a2 = hough_x(motion, t_ref=10.0)
        assert a2 == 100.0

    def test_wedge_is_exact_positive(self):
        query = MORQuery1D(100, 200, 50, 60)
        wedge = mor_wedge(query, MODEL, sign=+1)
        # Object crossing into the range during the window.
        motion = LinearMotion1D(y0=90.0, v=1.0, t0=40.0)  # at t=50 -> 100
        assert matches_1d(motion, query)
        assert wedge.contains(*hough_x(motion))
        # Object that stays below the range for the whole window.
        slow = LinearMotion1D(y0=0.0, v=0.2, t0=0.0)  # at t=60 -> 12
        assert not matches_1d(slow, query)
        assert not wedge.contains(*hough_x(slow))

    def test_wedge_speed_band_constraints(self):
        query = MORQuery1D(0, 1000, 0, 100)
        wedge = mor_wedge(query, MODEL, sign=+1)
        assert not wedge.contains(0.01, 500.0)  # below v_min
        assert not wedge.contains(2.0, 500.0)  # above v_max
        assert wedge.contains(1.0, 500.0)

    def test_wedge_respects_t_ref(self):
        query = MORQuery1D(100, 200, 50, 60)
        motion = LinearMotion1D(y0=90.0, v=1.0, t0=40.0)
        wedge = mor_wedge(query, MODEL, sign=+1, t_ref=30.0)
        assert wedge.contains(*hough_x(motion, t_ref=30.0))


def _near_wedge_boundary(wedge, x, y, rel_tol=1e-7):
    """True when the dual point sits within roundoff of a constraint line."""
    for hp in wedge.constraints:
        scale = 1.0 + abs(hp.cx * x) + abs(hp.cy * y) + abs(hp.rhs)
        if abs(hp.cx * x + hp.cy * y - hp.rhs) <= rel_tol * scale:
            return True
    return False


def _assert_wedge_consistent(wedge, motion, query, t_ref=0.0):
    """Wedge membership must equal the predicate away from float boundaries."""
    point = hough_x(motion, t_ref)
    if wedge.contains(*point) != matches_1d(motion, query):
        assert _near_wedge_boundary(wedge, *point), (
            f"wedge/predicate disagree far from boundary: {motion} {query}"
        )


@settings(max_examples=300, deadline=None)
@given(motion=motions(+1), query=queries())
def test_property_wedge_positive_equals_predicate(motion, query):
    _assert_wedge_consistent(mor_wedge(query, MODEL, sign=+1), motion, query)


@settings(max_examples=300, deadline=None)
@given(motion=motions(-1), query=queries())
def test_property_wedge_negative_equals_predicate(motion, query):
    _assert_wedge_consistent(mor_wedge(query, MODEL, sign=-1), motion, query)


class TestConvexRegion:
    UNIT = ConvexRegion(
        (
            HalfPlane(-1, 0, 0),  # x >= 0
            HalfPlane(1, 0, 1),  # x <= 1
            HalfPlane(0, -1, 0),  # y >= 0
            HalfPlane(0, 1, 1),  # y <= 1
        )
    )

    def test_contains(self):
        assert self.UNIT.contains(0.5, 0.5)
        assert not self.UNIT.contains(1.5, 0.5)

    def test_rect_outside(self):
        assert self.UNIT.rect_outside(2, 2, 3, 3)
        assert not self.UNIT.rect_outside(0.5, 0.5, 2, 2)

    def test_rect_inside(self):
        assert self.UNIT.rect_inside(0.2, 0.2, 0.8, 0.8)
        assert not self.UNIT.rect_inside(0.2, 0.2, 1.5, 0.8)

    def test_may_intersect_is_conservative(self):
        # A rect that truly intersects must never be pruned.
        assert self.UNIT.may_intersect_rect(0.9, 0.9, 2, 2)


class TestHoughY:
    def test_dual_point(self):
        motion = LinearMotion1D(y0=10.0, v=2.0, t0=0.0)
        n, b = hough_y(motion, y_r=0.0)
        assert n == 0.5
        assert b == -5.0  # crosses y=0 at t=-5

    def test_undefined_for_stationary(self):
        with pytest.raises(InvalidMotionError):
            hough_y(LinearMotion1D(0.0, 0.0))

    def test_b_range_validation(self):
        with pytest.raises(InvalidMotionError):
            hough_y_b_range(MORQuery1D(0, 1, 0, 1), 0.0, -1.0, 1.0)

    def test_exact_match_filter(self):
        query = MORQuery1D(100, 200, 50, 60)
        motion = LinearMotion1D(y0=90.0, v=1.0, t0=40.0)
        n, b = hough_y(motion, y_r=0.0)
        assert hough_y_matches(n, b, query, y_r=0.0)


def _near_query_boundary(motion, query, rel_tol=1e-7):
    """The motion's endpoint positions sit within roundoff of the range,
    or within the slack :func:`hough_y_matches` documents: ``1e-9 * (1 +
    |lhs| + |t|)`` in time — ``lhs`` is ``t`` there, give or take that
    slack, hence the doubling — which is ``|v|`` times as much in
    position."""
    for t in (query.t1, query.t2):
        y = motion.position(t)
        dual_slack = abs(motion.v) * 2e-9 * (1.0 + 2.0 * abs(t))
        for edge in (query.y1, query.y2):
            if abs(y - edge) <= (
                rel_tol * (1.0 + abs(y) + abs(edge)) + dual_slack
            ):
                return True
    return False


@settings(max_examples=300, deadline=None)
@given(motion=motions(+1), query=queries(), y_r=st.sampled_from([0.0, 250.0, 500.0]))
@example(
    # 1.2e-7 short of the range at t = 500: inside the dual test's
    # ~1e-6 time slack, outside a 1e-7 position tolerance.
    motion=LinearMotion1D(y0=0.0, v=1.0, t0=500.0),
    query=MORQuery1D(1.192092896e-07, 1.192092896e-07, 500.0, 500.0),
    y_r=0.0,
)
def test_property_hough_y_exact_equals_predicate(motion, query, y_r):
    n, b = hough_y(motion, y_r)
    if hough_y_matches(n, b, query, y_r) != matches_1d(motion, query):
        assert _near_query_boundary(motion, query), (
            "dual/primal disagree away from the boundary"
        )


@settings(max_examples=300, deadline=None)
@given(motion=motions(+1), query=queries(), y_r=st.sampled_from([0.0, 250.0, 500.0]))
def test_property_b_range_has_no_false_negatives(motion, query, y_r):
    """The rectangle approximation must be a superset of the true answer."""
    n, b = hough_y(motion, y_r)
    b_lo, b_hi = hough_y_b_range(query, y_r, MODEL.v_min, MODEL.v_max)
    if matches_1d(motion, query):
        assert b_lo - 1e-9 <= b <= b_hi + 1e-9


class TestApproximationArea:
    def test_equation_1(self):
        # E = 0.5 * ((vmax-vmin)/(vmin*vmax))^2 * (|y2-yr| + |y1-yr|)
        e = approximation_area(0.5, 1.0, y1=10.0, y2=30.0, y_r=0.0)
        assert e == pytest.approx(0.5 * 1.0 * (30 + 10))

    def test_equation_2_bound(self):
        bound = approximation_area_bound(0.5, 1.0, y_max=100.0, c=4)
        assert bound == pytest.approx(0.5 * 1.0 * 25.0)
        with pytest.raises(ValueError):
            approximation_area_bound(0.5, 1.0, 100.0, 0)

    def test_bound_covers_small_queries(self):
        """Eq (2) bounds eq (1) for any query narrower than a subterrain."""
        c, y_max = 4, 1000.0
        horizons = observation_horizons(y_max, c)
        for y1 in [0.0, 120.0, 370.0, 655.0, 874.9]:
            y2 = y1 + y_max / c / 2
            query = MORQuery1D(y1, y2, 0, 1)
            best = horizons[best_observation_horizon(query, horizons)]
            e = approximation_area(0.16, 1.66, y1, y2, best)
            assert e <= approximation_area_bound(0.16, 1.66, y_max, c) * (
                1 + 1e-9
            ) + 1e-9

    def test_best_horizon_picks_minimiser(self):
        horizons = [125.0, 375.0, 625.0, 875.0]
        query = MORQuery1D(600, 660, 0, 1)
        assert best_observation_horizon(query, horizons) == 2
        with pytest.raises(ValueError):
            best_observation_horizon(query, [])


class TestReflection:
    def test_reflect_motion_is_involution(self):
        motion = LinearMotion1D(100.0, -1.2, 3.0)
        twice = reflect_motion(reflect_motion(motion, 1000.0), 1000.0)
        assert twice == motion

    def test_reflection_preserves_matching(self):
        motion = LinearMotion1D(900.0, -1.0, 0.0)
        query = MORQuery1D(700, 800, 100, 150)
        reflected_m = reflect_motion(motion, 1000.0)
        reflected_q = reflect_query(query, 1000.0)
        assert matches_1d(motion, query) == matches_1d(reflected_m, reflected_q)
        assert reflected_m.v == 1.0


@settings(max_examples=200, deadline=None)
@given(motion=motions(-1), query=queries())
def test_property_reflection_preserves_predicate(motion, query):
    y_max = MODEL.terrain.y_max
    reflected = matches_1d(
        reflect_motion(motion, y_max), reflect_query(query, y_max)
    )
    if matches_1d(motion, query) != reflected:
        # Reflection arithmetic (y_max - y) can shift an exact-boundary
        # case by an ulp; only such cases may disagree.
        assert _near_query_boundary(motion, query)


class TestSubterrains:
    def test_horizons_at_subterrain_midpoints(self):
        assert observation_horizons(1000.0, 4) == [125.0, 375.0, 625.0, 875.0]
        with pytest.raises(ValueError):
            observation_horizons(1000.0, 0)

    def test_bounds_and_lookup(self):
        assert subterrain_bounds(1000.0, 4, 1) == (250.0, 500.0)
        assert subterrain_of(0.0, 1000.0, 4) == 0
        assert subterrain_of(999.9, 1000.0, 4) == 3
        assert subterrain_of(1000.0, 1000.0, 4) == 3  # clamped
        with pytest.raises(ValueError):
            subterrain_bounds(1000.0, 4, 4)

    def test_residence_interval(self):
        motion = LinearMotion1D(y0=0.0, v=1.0, t0=0.0)
        assert residence_interval(motion, 250.0, 500.0, t_from=0.0) == (
            250.0,
            500.0,
        )
        # Clamped by t_from when already inside.
        inside = LinearMotion1D(y0=300.0, v=1.0, t0=0.0)
        assert residence_interval(inside, 250.0, 500.0, t_from=10.0) == (
            10.0,
            200.0,
        )
        # None when the object never visits.
        away = LinearMotion1D(y0=600.0, v=1.0, t0=0.0)
        assert residence_interval(away, 250.0, 500.0, t_from=0.0) is None

    def test_residence_interval_with_deadline(self):
        motion = LinearMotion1D(y0=0.0, v=1.0, t0=0.0)
        assert residence_interval(
            motion, 250.0, 500.0, t_from=0.0, t_until=300.0
        ) == (250.0, 300.0)
        assert (
            residence_interval(motion, 250.0, 500.0, t_from=0.0, t_until=100.0)
            is None
        )
