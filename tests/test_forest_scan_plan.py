"""One scan plan for every query width (§3.5.2 without case (ii)).

The served forest answers a query wider than a subterrain exactly as it
answers a narrow one — one ``b``-range scan per sign and band on one
observation tree — and keeps no subterrain interval indexes;
:class:`~repro.indexes.PaperForestIndex` keeps the published structure.
Pinned here: the two classes and the brute-force predicate agree at
every width, window and boundary float; what each class stores; and the
page budgets the change bought on the write path and on wide reads.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    brute_force_1d,
    reflect_motion,
    reflect_query,
)
from repro.indexes import HoughYForestIndex, PaperForestIndex
from repro.workloads import WorkloadGenerator

from .helpers import PAPER_MODEL
from .test_forest_bands import CORNER_SPEEDS, finite, populations

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max


# -- served ≡ paper ≡ brute force, at every width ------------------------------


@st.composite
def any_queries(draw):
    """Any extent from a point to the whole terrain, any window from an
    instant up."""
    y1 = draw(finite(0, Y_MAX))
    y2 = draw(st.one_of(st.just(y1), st.just(Y_MAX), finite(y1, Y_MAX)))
    t1 = draw(finite(0, 250))
    t2 = t1 + draw(st.one_of(st.just(0.0), finite(0, 120)))
    return MORQuery1D(y1, y2, t1, t2)


def edge_population():
    """Both signs of every corner speed and a spread of ordinary ones,
    with a few objects sitting exactly on the coordinates the edge
    queries below use (a horizon, a subterrain border, the terrain's
    own ends) at the instant they start."""
    rng = random.Random(20)
    speeds = CORNER_SPEEDS + [rng.uniform(V_MIN, V_MAX) for _ in range(12)]
    motions = [
        LinearMotion1D(rng.uniform(0, Y_MAX), sign * speed, rng.uniform(0, 30))
        for speed in speeds
        for sign in (1, -1)
    ]
    motions += [
        LinearMotion1D(y, sign * speed, 40.0)
        for y in (0.0, 100.0, 250.0, 350.0, 375.0, 800.0, Y_MAX)
        for speed in (V_MIN, V_MAX)
        for sign in (1, -1)
    ]
    return [MobileObject1D(oid, motion) for oid, motion in enumerate(motions)]


#: For c = 4 (subterrains 250 wide, horizons at 125 / 375 / 625 / 875).
EDGE_QUERIES = [
    MORQuery1D(100.0, 350.0, 40.0, 70.0),  # extent exactly y_max / c
    MORQuery1D(100.0, 350.00000000000006, 40.0, 70.0),  # one float wider
    MORQuery1D(0.0, Y_MAX, 40.0, 70.0),  # the whole terrain
    MORQuery1D(375.0, 800.0, 40.0, 70.0),  # y1 == y_r: horizon on the edge
    MORQuery1D(250.0, 750.0, 40.0, 70.0),  # subterrain-aligned, two wide
    MORQuery1D(100.0, 800.0, 40.0, 40.0),  # t1 == t2, wide
    MORQuery1D(375.0, 375.0, 40.0, 40.0),  # a point at an instant
]


def with_edge_examples(test):
    """Every edge query over the edge population, and the mirror image
    of both (``y -> y_max - y``, so every sign flips)."""
    population = edge_population()
    mirrored = [
        MobileObject1D(obj.oid, reflect_motion(obj.motion, Y_MAX))
        for obj in population
    ]
    for query in EDGE_QUERIES:
        test = example(population=population, query=query, c=4)(test)
        test = example(
            population=mirrored, query=reflect_query(query, Y_MAX), c=4
        )(test)
    return test


@settings(max_examples=150, deadline=None)
@given(
    population=populations(),
    query=any_queries(),
    c=st.sampled_from((1, 3, 4)),
)
@with_edge_examples
def test_one_plan_answers_every_width(population, query, c):
    served = HoughYForestIndex(PAPER_MODEL, c=c, leaf_capacity=4)
    paper = PaperForestIndex(PAPER_MODEL, c=c, leaf_capacity=4)
    for obj in population:
        served.insert(obj)
        paper.insert(obj)
    expected = brute_force_1d(population, query)
    assert served.query(query) == expected
    # The interval indexes hold each residence from the motion's
    # reference time on: case (ii) answers the MOR model's queries
    # about the future, not one that starts before an object reported.
    if all(obj.motion.t0 <= query.t1 for obj in population):
        assert paper.query(query) == expected


def test_edge_examples_are_not_vacuous():
    population = edge_population()
    for query in EDGE_QUERIES:
        assert brute_force_1d(population, query)


# -- what each class stores ----------------------------------------------------


def test_served_forest_is_its_observation_trees():
    """``2c`` disks, one per observation tree, and nothing per object
    beyond its motion; the paper class adds ``c``
    interval-index disks on the same trees."""
    rng = random.Random(3)
    population = [
        MobileObject1D(
            oid,
            LinearMotion1D(
                rng.uniform(0, Y_MAX),
                rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX),
                0.0,
            ),
        )
        for oid in range(300)
    ]
    def load(cls, c, bulk):
        if bulk:
            return cls.bulk_build(
                PAPER_MODEL, population, c=c, leaf_capacity=16
            )
        forest = cls(PAPER_MODEL, c=c, leaf_capacity=16)
        for obj in population:
            forest.insert(obj)
        return forest

    for c in (1, 4, 6):
        for bulk in (True, False):
            served = load(HoughYForestIndex, c, bulk)
            paper = load(PaperForestIndex, c, bulk)
            assert len(served.disks) == 2 * c
            assert len(paper.disks) == 3 * c
            assert served.pages_in_use == sum(
                disk.pages_in_use for disk in served._tree_disks.values()
            )
            assert not hasattr(served, "_intervals")
            assert paper.pages_in_use > served.pages_in_use
            for motion in served._catalog.values():
                sign, _, crossings = served._placement(motion)
                assert len(crossings) == c and sign in (1, -1)
    assert len(HoughYForestIndex(PAPER_MODEL).band_edges) == 3
    assert len(PaperForestIndex(PAPER_MODEL).band_edges) == 2


# -- page budgets --------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_forests():
    """One hash shard of the 100k ledger workloads — 25,000 objects,
    ``B = 341``, bulk-built — as served and as published."""
    gen = WorkloadGenerator(seed=71)
    population = gen.initial_population(25_000)
    return (
        gen.model,
        HoughYForestIndex.bulk_build(gen.model, population, c=4),
        PaperForestIndex.bulk_build(gen.model, population, c=4),
    )


def test_wide_query_page_budget(shard_forests):
    """40 queries 300–400 wide and 30 long, cold buffers: the scan reads
    70.2 pages a query where the paper's case (ii) over the same banded
    keys read 88; same answers as the paper class."""
    model, served, paper = shard_forests
    rng = random.Random(25_000)
    total = 0
    for _ in range(40):
        extent = rng.uniform(300, 400)
        y1 = rng.uniform(0, model.terrain.y_max - extent)
        t1 = rng.uniform(10, 40)
        query = MORQuery1D(y1, y1 + extent, t1, t1 + 30.0)
        served.clear_buffers()
        before = served.snapshot()
        answer = served.query(query)
        total += served.io_cost_since(before)
        assert answer == paper.query(query)
    assert total / 40 < 80


def test_update_batch_page_budget(shard_forests):
    """One 250-report batch — a 1,000-op ledger batch over four shards —
    costs 3.04 pages per report on 8 trees; with the 4 interval indexes
    beside them it cost 5.3."""
    model, served, _ = shard_forests
    rng = random.Random(7)
    batch = [
        MobileObject1D(
            oid,
            LinearMotion1D(
                rng.uniform(0, model.terrain.y_max),
                rng.choice((1, -1)) * rng.uniform(model.v_min, model.v_max),
                1.0,
            ),
        )
        for oid in rng.sample(range(25_000), 250)
    ]
    before = served.snapshot()
    served.update_batch(batch)
    assert served.io_cost_since(before) / len(batch) < 3.6
