"""Property tests: bulk-built index generations ≡ incrementally built.

The STR-style bulk path (:meth:`HoughYForestIndex.bulk_build`, the
rotating index's ``bulk_factory`` generations, the hybrid band split's
grouped writes) is a pure performance alternative — every query must
answer exactly as if the population had arrived one ``insert`` at a
time.  Hypothesis drives the population shapes; probe grids compare
the answers set-for-set.  Degenerate shapes the packing code must not
trip over are pinned explicitly: empty input, a single object, an
all-equal-slope fleet (every tree key collides on ``b`` and ordering
falls to the oid tiebreak), and ``v = 0`` objects riding the hybrid
slow band.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    MotionModel,
    Terrain1D,
    brute_force_1d,
)
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.indexes import DualKDTreeIndex, RotatingIndex
from repro.indexes.hough_y_forest import HoughYForestIndex, PaperForestIndex
from repro.indexes.hybrid import HybridIndex

from .helpers import leaf_pages, leaf_pid_of

pytestmark = pytest.mark.writebatch

Y_MAX, V_MIN, V_MAX = 100.0, 0.16, 1.66
MODEL = MotionModel(Terrain1D(Y_MAX), v_min=V_MIN, v_max=V_MAX)


def probe_queries():
    """A fixed probe grid covering bands, instants and long windows."""
    queries = []
    for y1 in (0.0, 20.0, 45.0, 70.0):
        y2 = min(y1 + 30.0, Y_MAX)
        for t1, t2 in ((0.0, 0.0), (2.0, 6.0), (5.0, 30.0)):
            queries.append(MORQuery1D(y1, y2, t1, t2))
    queries.append(MORQuery1D(0.0, Y_MAX, 0.0, 120.0))
    return queries


def assert_same_answers(bulk, incremental, population):
    for query in probe_queries():
        want = incremental.query(query)
        got = bulk.query(query)
        assert got == want, f"bulk diverged on {query}"
        # Both must contain the exact answer (the forest approximates
        # from above: supersets only, never a miss).
        exact = brute_force_1d(population, query)
        assert exact <= got


@st.composite
def populations(draw, min_size=0, max_size=40, equal_slope=False):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    fixed_v = None
    if equal_slope:
        speed = draw(st.floats(min_value=V_MIN, max_value=V_MAX,
                               allow_nan=False, allow_infinity=False))
        sign = draw(st.sampled_from([1.0, -1.0]))
        fixed_v = sign * speed
    objects = []
    for oid in range(n):
        y0 = draw(st.floats(min_value=0.0, max_value=Y_MAX,
                            allow_nan=False, allow_infinity=False))
        if fixed_v is None:
            speed = draw(st.floats(min_value=V_MIN, max_value=V_MAX,
                                   allow_nan=False, allow_infinity=False))
            sign = draw(st.sampled_from([1.0, -1.0]))
            v = sign * speed
        else:
            v = fixed_v
        t0 = draw(st.floats(min_value=0.0, max_value=5.0,
                            allow_nan=False, allow_infinity=False))
        objects.append(MobileObject1D(oid, LinearMotion1D(y0, v, t0)))
    return objects


# -- forest bulk_build ---------------------------------------------------------


class TestForestBulkBuild:
    @settings(max_examples=40, deadline=None)
    @given(population=populations())
    def test_bulk_build_equals_incremental(self, population):
        incremental = HoughYForestIndex(MODEL, c=2)
        for obj in population:
            incremental.insert(obj)
        bulk = HoughYForestIndex.bulk_build(MODEL, population, c=2)
        assert len(bulk) == len(incremental) == len(population)
        assert_same_answers(bulk, incremental, population)

    @settings(max_examples=20, deadline=None)
    @given(population=populations(min_size=2, equal_slope=True))
    def test_all_equal_slope_fleet(self, population):
        """Every tree key shares one ``b`` slope structure: ordering
        falls entirely to the oid tiebreak, a classic sort-stability
        trap for pack-based builders."""
        incremental = HoughYForestIndex(MODEL, c=2)
        for obj in population:
            incremental.insert(obj)
        bulk = HoughYForestIndex.bulk_build(MODEL, population, c=2)
        assert_same_answers(bulk, incremental, population)

    @settings(max_examples=20, deadline=None)
    @given(population=populations(min_size=5, max_size=30),
           churn_seed=st.integers(min_value=0, max_value=2**16))
    def test_bulk_built_index_stays_maintainable(
        self, population, churn_seed
    ):
        """A bulk-built forest is a first-class index: scalar churn
        after the pack keeps matching an incremental twin."""
        bulk = HoughYForestIndex.bulk_build(MODEL, population, c=2)
        incremental = HoughYForestIndex(MODEL, c=2)
        for obj in population:
            incremental.insert(obj)
        rng = random.Random(churn_seed)
        live = {obj.oid: obj for obj in population}
        for _ in range(15):
            if live and rng.random() < 0.4:
                oid = rng.choice(sorted(live))
                del live[oid]
                bulk.delete(oid)
                incremental.delete(oid)
            else:
                oid = max(live, default=-1) + 1
                motion = LinearMotion1D(
                    rng.uniform(0, Y_MAX),
                    rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                    rng.uniform(0, 5),
                )
                obj = MobileObject1D(oid, motion)
                live[oid] = obj
                bulk.insert(obj)
                incremental.insert(obj)
        assert_same_answers(bulk, incremental, list(live.values()))

    def test_empty_and_single(self):
        empty = HoughYForestIndex.bulk_build(MODEL, [], c=2)
        assert len(empty) == 0
        for query in probe_queries():
            assert empty.query(query) == set()
        lone = MobileObject1D(7, LinearMotion1D(50.0, 1.0, 0.0))
        single = HoughYForestIndex.bulk_build(MODEL, [lone], c=2)
        assert len(single) == 1
        assert single.query(MORQuery1D(0.0, Y_MAX, 0.0, 10.0)) == {7}
        single.delete(7)
        assert len(single) == 0

    def test_duplicate_oid_rejected(self):
        twice = [
            MobileObject1D(1, LinearMotion1D(10.0, 1.0, 0.0)),
            MobileObject1D(1, LinearMotion1D(20.0, -1.0, 0.0)),
        ]
        with pytest.raises(DuplicateObjectError):
            HoughYForestIndex.bulk_build(MODEL, twice, c=2)

    def test_page_accounting_tracks_fill(self):
        """Looser fill burns more leaves; the 0.8 rebuild default sits
        between fully-packed and split-happy incremental growth."""
        rng = random.Random(11)
        population = [
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, Y_MAX),
                    rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
                    rng.uniform(0, 5),
                ),
            )
            for oid in range(400)
        ]
        pages = {
            fill: HoughYForestIndex.bulk_build(
                MODEL, population, c=2, leaf_capacity=8, fill=fill
            ).pages_in_use
            for fill in (1.0, 0.8, 0.5)
        }
        assert pages[1.0] <= pages[0.8] <= pages[0.5]
        incremental = HoughYForestIndex(MODEL, c=2, leaf_capacity=8)
        for obj in population:
            incremental.insert(obj)
        assert pages[0.8] <= incremental.pages_in_use


# -- forest grouped maintenance ------------------------------------------------


def random_object(rng, oid, y_max=Y_MAX, t0=None):
    return MobileObject1D(
        oid,
        LinearMotion1D(
            rng.uniform(0, y_max),
            rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX),
            rng.uniform(0, 5) if t0 is None else t0,
        ),
    )


def check_forest_invariants(forest):
    for tree in forest._trees.values():
        tree.check_invariants()
    for intervals in getattr(forest, "_intervals", ()):
        intervals.check_invariants()


class TestForestGroupedMaintenance:
    """Below the rebuild threshold a write batch is one sorted run per
    tree: the same index as the scalar loop, for fewer page accesses."""

    @settings(max_examples=30, deadline=None)
    @given(
        cls=st.sampled_from([HoughYForestIndex, PaperForestIndex]),
        population=populations(min_size=1, max_size=40),
        leaf_capacity=st.sampled_from([4, 8, None]),
        bulk=st.booleans(),
        churn_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_grouped_batches_equal_scalar_loops(
        self, cls, population, leaf_capacity, bulk, churn_seed
    ):
        if bulk:
            grouped = cls.bulk_build(
                MODEL, population, c=2, leaf_capacity=leaf_capacity
            )
        else:
            grouped = cls(MODEL, c=2, leaf_capacity=leaf_capacity)
            for obj in population:
                grouped.insert(obj)
        scalar = cls(MODEL, c=2, leaf_capacity=leaf_capacity)
        for obj in population:
            scalar.insert(obj)
        rng = random.Random(churn_seed)
        live = {obj.oid: obj for obj in population}
        next_oid = len(population)
        for _ in range(4):
            moved = [
                random_object(rng, oid)
                for oid in rng.sample(sorted(live), rng.randint(0, len(live)))
            ]
            grouped.update_batch(moved)
            for obj in moved:
                scalar.update(obj)
                live[obj.oid] = obj
            fresh = [
                random_object(rng, next_oid + i)
                for i in range(rng.randint(0, 12))
            ]
            next_oid += len(fresh)
            grouped.insert_batch(fresh)
            for obj in fresh:
                scalar.insert(obj)
                live[obj.oid] = obj
            gone = rng.sample(sorted(live), rng.randint(0, len(live) // 2))
            grouped.delete_batch(gone)
            for oid in gone:
                scalar.delete(oid)
                del live[oid]
            check_forest_invariants(grouped)
            assert grouped.motion_snapshot() == scalar.motion_snapshot()
            assert_same_answers(grouped, scalar, list(live.values()))

    def test_a_rejected_group_leaves_the_forest_untouched(self):
        for cls in (HoughYForestIndex, PaperForestIndex):
            self.check_rejected_groups(cls)

    def check_rejected_groups(self, cls):
        rng = random.Random(2)
        population = [random_object(rng, oid) for oid in range(30)]
        forest = cls.bulk_build(MODEL, population, c=2)
        catalog = forest.motion_snapshot()
        before = forest.snapshot()
        good = random_object(rng, 3)
        off_terrain = MobileObject1D(4, LinearMotion1D(2 * Y_MAX, 1.0, 0.0))
        too_slow = MobileObject1D(4, LinearMotion1D(5.0, V_MIN / 2, 0.0))
        with pytest.raises(InvalidMotionError, match="outside terrain"):
            forest.update_batch([good, off_terrain])
        with pytest.raises(InvalidMotionError, match="band"):
            forest.update_batch([good, too_slow])
        with pytest.raises(ObjectNotFoundError):
            forest.update_batch([good, random_object(rng, 99)])
        with pytest.raises(DuplicateObjectError):
            forest.insert_batch([random_object(rng, 40), random_object(rng, 3)])
        with pytest.raises(DuplicateObjectError):
            forest.insert_batch([random_object(rng, 40), random_object(rng, 40)])
        with pytest.raises(ObjectNotFoundError):
            forest.delete_batch([3, 99])
        with pytest.raises(DuplicateObjectError):
            forest.delete_batch([3, 3])
        assert forest.motion_snapshot() == catalog
        assert forest.io_cost_since(before) == 0
        check_forest_invariants(forest)

    def test_grouped_storm_at_paper_leaf_size(self):
        """The regime the service runs in: B = 341 leaves packed at 0.8,
        a storm well below the rebuild threshold.  Same catalog, same
        answers to 1 % and 10 % queries, same space, a fraction of the
        scalar loop's page accesses — per touched leaf of each tree at
        most one descent and one write, plus the ancestors of a leaf
        whose minimum moved."""
        y_max = 1000.0
        model = MotionModel(Terrain1D(y_max), v_min=V_MIN, v_max=V_MAX)
        rng = random.Random(21)
        population = [
            random_object(rng, oid, y_max, t0=0.0) for oid in range(6000)
        ]
        grouped = HoughYForestIndex.bulk_build(model, population, c=4)
        scalar = HoughYForestIndex.bulk_build(model, population, c=4)
        storm = [
            random_object(rng, oid, y_max, t0=1.0)
            for oid in rng.sample(range(6000), 200)
        ]
        assert len(storm) < HoughYForestIndex.REBUILD_MIN_BATCH

        touched = {key: set() for key in grouped._trees}
        held = grouped.motion_snapshot()
        for obj in storm:
            sign, old_speed, old_keys = grouped._placement(held[obj.oid])
            new_sign, speed, new_keys = grouped._placement(obj.motion)
            old_band = grouped._band(old_speed)
            new_band = grouped._band(speed)
            for i in range(grouped.c):
                for side, band, b in (
                    (sign, old_band, old_keys[i]),
                    (new_sign, new_band, new_keys[i]),
                ):
                    touched[(side, i)].add(
                        leaf_pid_of(
                            grouped._trees[(side, i)], (band, b, obj.oid)
                        )
                    )

        since = {
            key: disk.stats.snapshot()
            for key, disk in grouped._tree_disks.items()
        }
        minima = {
            key: {pid: items[0][0] for pid, items in leaf_pages(tree)}
            for key, tree in grouped._trees.items()
        }
        before_grouped, before_scalar = grouped.snapshot(), scalar.snapshot()
        grouped.update_batch(storm)
        for obj in storm:
            scalar.update(obj)
        cost_grouped = grouped.io_cost_since(before_grouped)
        cost_scalar = scalar.io_cost_since(before_scalar)
        assert cost_grouped * 3 < cost_scalar
        for key, disk in grouped._tree_disks.items():
            cost = disk.stats.snapshot() - since[key]
            tree = grouped._trees[key]
            moved = sum(
                minima[key].get(pid) != items[0][0]
                for pid, items in leaf_pages(tree)
            )
            assert cost.reads <= tree.height * len(touched[key]), key
            assert (
                cost.writes <= len(touched[key]) + (tree.height - 1) * moved
            ), key

        check_forest_invariants(grouped)
        assert grouped.motion_snapshot() == scalar.motion_snapshot()
        assert grouped.pages_in_use == scalar.pages_in_use
        for extent, window in ((10.0, 10.0), (100.0, 60.0)):  # 1 %, 10 %
            for _ in range(25):
                y1 = rng.uniform(0, y_max - extent)
                t1 = rng.uniform(1.0, 40.0)
                query = MORQuery1D(y1, y1 + extent, t1, t1 + window)
                assert grouped.query(query) == scalar.query(query)

        fresh = [random_object(rng, 6000 + i, y_max, t0=1.0) for i in range(150)]
        gone = rng.sample(range(6000), 150)
        before_grouped, before_scalar = grouped.snapshot(), scalar.snapshot()
        grouped.insert_batch(fresh)
        grouped.delete_batch(gone)
        for obj in fresh:
            scalar.insert(obj)
        for oid in gone:
            scalar.delete(oid)
        assert (
            grouped.io_cost_since(before_grouped) * 3
            < scalar.io_cost_since(before_scalar)
        )
        check_forest_invariants(grouped)
        assert grouped.motion_snapshot() == scalar.motion_snapshot()
        assert grouped.pages_in_use == scalar.pages_in_use


# -- rotating generations ------------------------------------------------------


def make_rotating(bulk: bool) -> RotatingIndex:
    factory = lambda t_ref: DualKDTreeIndex(  # noqa: E731
        MODEL, t_ref=t_ref, leaf_capacity=8
    )
    if not bulk:
        return RotatingIndex(MODEL, factory=factory)
    return RotatingIndex(
        MODEL,
        factory=factory,
        bulk_factory=lambda t_ref, objs: HoughYForestIndex.bulk_build(
            MODEL, objs, c=2
        ),
    )


class TestRotatingBulkGenerations:
    @settings(max_examples=25, deadline=None)
    @given(population=populations(min_size=2, max_size=30),
           rounds=st.integers(min_value=1, max_value=3))
    def test_bulk_generations_equal_incremental(self, population, rounds):
        """§3.2 rotation with bulk-built generations answers exactly
        like the per-insert build, across generation turnover."""
        bulk, plain = make_rotating(True), make_rotating(False)
        bulk.insert_batch(population)
        plain.insert_batch(population)
        period = MODEL.t_period
        current = list(population)
        for round_index in range(1, rounds + 1):
            current = [
                MobileObject1D(
                    obj.oid,
                    LinearMotion1D(
                        obj.motion.y0, obj.motion.v,
                        round_index * period,
                    ),
                )
                for obj in current
            ]
            bulk.update_batch(current)
            plain.update_batch(current)
            assert bulk.generation_epochs == plain.generation_epochs
        assert len(bulk) == len(plain) == len(population)
        # Probe inside the current epoch's window: generation routing
        # is by query time, so pre-rotation instants are out of scope.
        base = rounds * period
        for query in probe_queries():
            shifted = MORQuery1D(
                query.y1, query.y2, base + query.t1, base + query.t2
            )
            want = plain.query(shifted)
            got = bulk.query(shifted)
            exact = brute_force_1d(current, shifted)
            assert exact <= got and exact <= want

    def test_delete_batch_retires_bulk_generations(self):
        bulk = make_rotating(True)
        population = [
            MobileObject1D(oid, LinearMotion1D(10.0 * oid, 1.0, 0.0))
            for oid in range(8)
        ]
        bulk.insert_batch(population)
        assert bulk.generation_count == 1
        bulk.delete_batch([obj.oid for obj in population])
        assert len(bulk) == 0
        assert bulk.generation_count == 0


# -- hybrid band split ---------------------------------------------------------


class TestHybridBatchBands:
    def test_zero_velocity_rides_the_slow_band(self):
        """``v = 0`` is legal input to the hybrid split: the grouped
        write path must file it under the §3.6 slow store and answer
        exactly like scalar inserts."""
        rng = random.Random(5)
        population = []
        for oid in range(60):
            if oid % 3 == 0:
                v = 0.0 if oid % 6 == 0 else rng.uniform(0.0, V_MIN * 0.9)
            else:
                v = rng.choice([1.0, -1.0]) * rng.uniform(V_MIN, V_MAX)
            population.append(
                MobileObject1D(
                    oid,
                    LinearMotion1D(rng.uniform(0, Y_MAX), v,
                                   rng.uniform(0, 5)),
                )
            )
        batched = HybridIndex(
            MODEL, fast_factory=lambda m: HoughYForestIndex(m, c=2)
        )
        scalar = HybridIndex(
            MODEL, fast_factory=lambda m: HoughYForestIndex(m, c=2)
        )
        batched.insert_batch(population)
        for obj in population:
            scalar.insert(obj)
        for query in probe_queries():
            assert batched.query(query) == scalar.query(query)
        # Batched updates flip bands exactly like scalar ones.
        moved = [
            MobileObject1D(
                obj.oid,
                LinearMotion1D(obj.motion.y0, 1.0, obj.motion.t0 + 1.0),
            )
            for obj in population[:20]
        ]
        batched.update_batch(moved)
        for obj in moved:
            scalar.update(obj)
        for query in probe_queries():
            assert batched.query(query) == scalar.query(query)
        batched.delete_batch([obj.oid for obj in population])
        for obj in population:
            scalar.delete(obj.oid)
        assert len(batched) == len(scalar) == 0
