"""The forest's speed-banded tree keys (§7 folded into §3.5.2).

Observation trees sort by ``(speed band, b, oid)`` and a narrow query
scans one ``b``-range per band.  Banding is a pure read-path saving, so
the properties here pin what it must not change — answers, the set of
records a query may fetch, the keys the three write paths store — and
the floats where it could go wrong: speeds exactly on a band edge,
objects exactly on a query edge.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import ShardedMotionService
from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    brute_force_1d,
    matches_1d,
    speed_bands,
)
from repro.errors import InvalidMotionError
from repro.indexes import HoughYForestIndex
from repro.vector.ops import RegisterOp

from .helpers import PAPER_MODEL, banded_forest, stored_records

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max

#: Every float a band edge can misplace: the edges of the served forest
#: and of a finer one, and their neighbours inside the model.
CORNER_SPEEDS = sorted(
    {
        speed
        for ratio in (HoughYForestIndex.BAND_RATIO, 2.0)
        for edge in speed_bands(V_MIN, V_MAX, ratio)
        for speed in (
            math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)
        )
        if V_MIN <= speed <= V_MAX
    }
)


def finite(lo, hi):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


class TestSpeedBands:
    def test_paper_model_is_two_bands_cut_at_the_geometric_mean(self):
        edges = speed_bands(V_MIN, V_MAX, HoughYForestIndex.BAND_RATIO)
        assert edges == [V_MIN, pytest.approx(math.sqrt(V_MIN * V_MAX)), V_MAX]
        assert HoughYForestIndex(PAPER_MODEL).band_edges == edges

    @pytest.mark.parametrize(
        "v_min, v_max, ratio, bands",
        [
            (1.0, 4.0, 4.0, 1),  # a model no wider than the ratio
            (1.0, 1.0, 4.0, 1),
            (1.0, 4.000001, 4.0, 2),
            (1.0, 16.0, 4.0, 2),  # exact powers: ceil(log(125, 5)) is 4
            (1.0, 125.0, 5.0, 3),
            (0.16, 1.66, float("inf"), 1),
            (0.16, 1.66, 1.35, 8),
        ],
    )
    def test_fewest_bands_no_wider_than_the_ratio(
        self, v_min, v_max, ratio, bands
    ):
        edges = speed_bands(v_min, v_max, ratio)
        assert len(edges) - 1 == bands
        assert (edges[0], edges[-1]) == (v_min, v_max)
        assert edges == sorted(edges)
        for lo, hi in zip(edges, edges[1:]):
            assert hi / lo <= ratio * (1 + 1e-12)

    def test_bad_arguments_rejected(self):
        for ratio in (1.0, 0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                speed_bands(V_MIN, V_MAX, ratio)
        with pytest.raises(InvalidMotionError):
            speed_bands(0.0, 1.0, 4.0)
        with pytest.raises(InvalidMotionError):
            speed_bands(2.0, 1.0, 4.0)

    def test_every_model_speed_has_a_band(self):
        forest = banded_forest(2.0)(PAPER_MODEL)
        edges = forest.band_edges
        assert [forest._band(edge) for edge in edges] == [0, 1, 2, 3, 3]
        for speed in CORNER_SPEEDS:
            band = forest._band(speed)
            assert edges[band] <= speed <= edges[band + 1]


# -- boundary floats -----------------------------------------------------------


@st.composite
def on_edge_cases(draw):
    """An object at a corner speed and a query one of whose ``y`` edges
    is exactly the object's position at ``t1`` or ``t2``."""
    v = draw(st.sampled_from(CORNER_SPEEDS)) * draw(st.sampled_from((1, -1)))
    motion = LinearMotion1D(draw(finite(0, Y_MAX)), v, draw(finite(0, 100)))
    t1 = motion.t0 + draw(finite(0, 100))
    t2 = t1 + draw(st.one_of(st.just(0.0), finite(0, 60)))
    position = motion.position(draw(st.sampled_from((t1, t2))))
    extent = draw(finite(0, 10))
    y1, y2 = draw(
        st.sampled_from(
            ((position, position + extent), (position - extent, position))
        )
    )
    assume(0 <= y1 and y2 <= Y_MAX)
    return motion, MORQuery1D(y1, y2, t1, t2)


@settings(max_examples=200, deadline=None)
@given(case=on_edge_cases())
# Missed before hough_y_b_range carried hough_y_matches' slack: the
# stored b and the range corner differ by an ulp at v_min / v_max.
@example(
    case=(
        LinearMotion1D(757.1409295652494, 1.66, 7.5992267330252385),
        MORQuery1D(865.0753519702106, 868.4765755921226,
                   74.66889301427418, 74.66889301427418),
    )
)
@example(
    case=(
        LinearMotion1D(939.1491627785106, -0.16, 38.12042376882124),
        MORQuery1D(928.0465624731058, 935.6835724244207,
                   59.780363481882574, 59.780363481882574),
    )
)
@example(
    case=(
        LinearMotion1D(703.382088603836, 0.16, 98.3187717309674),
        MORQuery1D(707.850642705582, 712.8730282899169,
                   157.63714476897314, 157.63714476897314),
    )
)
@example(
    case=(
        LinearMotion1D(828.5059714691135, -1.66, 34.08974641165834),
        MORQuery1D(726.3850900643135, 732.0929053203038,
                   95.608349667562, 142.52256576552728),
    )
)
def test_object_on_a_query_edge_at_a_band_corner_is_found(case):
    motion, query = case
    assume(matches_1d(motion, query))
    for ratio in (HoughYForestIndex.BAND_RATIO, 2.0):
        forest = banded_forest(ratio)(PAPER_MODEL, c=4)
        forest.insert(MobileObject1D(0, motion))
        assert forest.query(query) == {0}, ratio


# -- banding changes pages, nothing else ---------------------------------------


@st.composite
def populations(draw, max_size=40):
    speeds = st.one_of(finite(V_MIN, V_MAX), st.sampled_from(CORNER_SPEEDS))
    return [
        MobileObject1D(
            oid,
            LinearMotion1D(
                draw(finite(0, Y_MAX)),
                draw(speeds) * draw(st.sampled_from((1, -1))),
                draw(finite(0, 50)),
            ),
        )
        for oid in range(draw(st.integers(min_value=0, max_value=max_size)))
    ]


@st.composite
def narrow_queries(draw, c):
    y1 = draw(finite(0, Y_MAX))
    y2 = min(y1 + draw(finite(0, Y_MAX / c)), Y_MAX)
    t1 = draw(finite(0, 200))
    return MORQuery1D(y1, y2, t1, t1 + draw(finite(0, 80)))


@settings(max_examples=60, deadline=None)
@given(
    population=populations(),
    queries=st.lists(narrow_queries(c=4), min_size=1, max_size=6),
    ratio=st.sampled_from((4.0, 2.0, 1.35)),
)
def test_banded_plan_fetches_a_subset_and_answers_the_same(
    population, queries, ratio
):
    one_band = banded_forest(float("inf"))(PAPER_MODEL, c=4, leaf_capacity=4)
    banded = banded_forest(ratio)(PAPER_MODEL, c=4, leaf_capacity=4)
    for obj in population:
        one_band.insert(obj)
        banded.insert(obj)
    for query in queries:
        fetched = {
            forest: [oid for oid, _ in forest._candidates(query)]
            for forest in (one_band, banded)
        }
        assert set(fetched[banded]) <= set(fetched[one_band])
        assert len(fetched[banded]) <= len(fetched[one_band])
        assert (
            banded.query(query)
            == one_band.query(query)
            == brute_force_1d(population, query)
        )


def tree_keys(forest):
    return {
        tree_key: [key for key, _ in stored_records(tree)]
        for tree_key, tree in forest._trees.items()
    }


@settings(max_examples=40, deadline=None)
@given(
    population=populations(),
    ratio=st.sampled_from((float("inf"), 4.0, 2.0)),
    churn_seed=st.integers(min_value=0, max_value=2**16),
)
def test_scalar_grouped_and_bulk_forests_hold_the_same_keys(
    population, ratio, churn_seed
):
    """Insert, update, delete — verb by verb, as grouped runs, and as
    one bulk build of the survivors — store one key set per tree, every
    key led by the band of the speed stored beside it."""
    cls = banded_forest(ratio)
    scalar = cls(PAPER_MODEL, c=2, leaf_capacity=4)
    grouped = cls(PAPER_MODEL, c=2, leaf_capacity=4)
    for obj in population:
        scalar.insert(obj)
    grouped._apply_grouped([], population)

    rng = random.Random(churn_seed)
    moved = [
        MobileObject1D(
            obj.oid,
            LinearMotion1D(
                rng.uniform(0, Y_MAX),
                rng.choice(CORNER_SPEEDS + [rng.uniform(V_MIN, V_MAX)])
                * rng.choice((1, -1)),
                60.0,
            ),
        )
        for obj in rng.sample(population, len(population) // 2)
    ]
    gone = [obj.oid for obj in rng.sample(population, len(population) // 4)]
    for obj in moved:
        scalar.update(obj)
    for oid in gone:
        scalar.delete(oid)
    grouped._apply_grouped([obj.oid for obj in moved], moved)
    grouped.delete_batch(gone)
    survivors = [
        MobileObject1D(oid, motion)
        for oid, motion in scalar.motion_snapshot().items()
    ]
    bulk = cls.bulk_build(PAPER_MODEL, survivors, c=2, leaf_capacity=4)

    assert tree_keys(scalar) == tree_keys(grouped) == tree_keys(bulk)
    assert (
        scalar.motion_snapshot()
        == grouped.motion_snapshot()
        == bulk.motion_snapshot()
    )
    for tree in scalar._trees.values():
        tree.check_invariants()
        for (band, _, _), speed in stored_records(tree):
            assert band == scalar._band(speed)


# -- the served read path's page budget ----------------------------------------


def test_served_read_path_page_budget():
    """Cold-buffer page reads per scalar query through the service, at
    the 10 % class's mean extents: the ledger's ``query_pages`` in
    miniature, so a read-path regression fails here in a second rather
    than at the benchmark gate.

    16,000 objects over 4 hash shards give a sign tree about eight
    leaves — the fewest at which losing either saving shows.  This run
    reads 32.8 pages a query; one band per tree reads 36.6, descending
    into the empty slow store 36.8, both (the structure before the
    speed-banded keys) 40.6.
    """
    rng = random.Random(5)
    service = ShardedMotionService(
        y_max=Y_MAX, v_min=V_MIN, v_max=V_MAX, shards=4, cache_capacity=0
    )
    outcomes = service.apply_batch(
        [
            RegisterOp(
                oid,
                rng.uniform(0, Y_MAX),
                rng.choice((-1, 1)) * rng.uniform(V_MIN, V_MAX),
                rng.uniform(0, 40),
            )
            for oid in range(16_000)
        ]
    )
    assert outcomes == [None] * 16_000

    def cold_pages(verb, *args):
        service.clear_buffers()
        before = service.metrics.live_io.reads
        verb(*args)
        return service.metrics.live_io.reads - before

    total = 0
    for _ in range(30):
        u, t = rng.random(), 64.0 + 20.0 * rng.random()
        y1 = u * (Y_MAX - 75.0)
        total += cold_pages(service.within, y1, y1 + 75.0, t, t + 30.0)
        y1 = u * (Y_MAX - 100.0)
        total += cold_pages(service.snapshot_at, y1, y1 + 100.0, t)
        total += cold_pages(service.nearest, u * Y_MAX, t, 10)
    assert total / 90 < 35.0
