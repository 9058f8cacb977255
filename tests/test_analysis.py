"""Tests for the analytical bound formulas."""

import math

import pytest

from repro.analysis import (
    expected_false_positives,
    hough_y_domain_area,
    linear_space_query_bound,
    log_b,
    mor1_expected_crossings,
    theorem1_space_bound,
)


class TestLogB:
    def test_values(self):
        assert log_b(1000, 10) == pytest.approx(3.0)
        assert log_b(1, 10) == 1.0
        assert log_b(0.5, 10) == 1.0
        assert log_b(5, 1000) == 1.0  # clamped to at least one level

    def test_validation(self):
        with pytest.raises(ValueError):
            log_b(100, 1)


class TestTheorem1:
    def test_space_bound(self):
        # delta = 1/2 in the plane: Omega(n) space.
        assert theorem1_space_bound(10000, 0.5, d=2) == pytest.approx(10000)
        # delta = 1 (linear scan): constant space suffices.
        assert theorem1_space_bound(10000, 1.0, d=2) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_space_bound(100, 0.0)
        with pytest.raises(ValueError):
            theorem1_space_bound(100, 1.5)
        with pytest.raises(ValueError):
            theorem1_space_bound(100, 0.5, d=0)

    def test_linear_space_query_bound(self):
        assert linear_space_query_bound(10000, d=2) == pytest.approx(100.0)
        assert linear_space_query_bound(10000, d=4) == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            linear_space_query_bound(100, d=0)

    def test_tradeoff_consistency(self):
        """Faster queries need more space; the two bounds meet at δ = 1/2."""
        n = 4096
        spaces = [theorem1_space_bound(n, d, 2) for d in (0.3, 0.5, 0.8)]
        assert spaces == sorted(spaces, reverse=True)


class TestApproximationPredictions:
    def test_expected_false_positives(self):
        assert expected_false_positives(1000, 10.0, 100.0) == 100.0
        with pytest.raises(ValueError):
            expected_false_positives(1000, 10.0, 0.0)

    def test_hough_y_domain_area(self):
        area = hough_y_domain_area(0.5, 1.0, b_spread=100.0)
        assert area == pytest.approx((2.0 - 1.0) * 100.0)
        with pytest.raises(ValueError):
            hough_y_domain_area(0.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            hough_y_domain_area(0.5, 1.0, 0.0)


class TestMOR1Estimate:
    def test_monotone_in_window_and_population(self):
        base = mor1_expected_crossings(100, 10.0, 0.5, 1.5, 1000.0)
        assert mor1_expected_crossings(200, 10.0, 0.5, 1.5, 1000.0) > base
        assert mor1_expected_crossings(100, 50.0, 0.5, 1.5, 1000.0) > base
        assert mor1_expected_crossings(1, 10.0, 0.5, 1.5, 1000.0) == 0.0

    def test_capped_by_all_pairs(self):
        estimate = mor1_expected_crossings(50, 1e9, 0.5, 1.5, 1000.0)
        assert estimate == pytest.approx(50 * 49 / 2)


class TestForestCostPredictor:
    def test_prediction_matches_measurement(self):
        import random

        from repro.analysis import ForestCostPredictor
        from repro.core import MORQuery1D
        from repro.indexes import HoughYForestIndex
        from repro.workloads import SMALL_QUERIES, WorkloadGenerator

        gen = WorkloadGenerator(seed=55)
        objects = gen.initial_population(800)
        forest = HoughYForestIndex(gen.model, c=4, leaf_capacity=16)
        for obj in objects:
            forest.insert(obj)
        predictor = ForestCostPredictor.from_index(forest)
        queries = [gen.query(SMALL_QUERIES, now=40.0) for _ in range(40)]
        # Wider than a subterrain: the forest scans those the same way,
        # so the predictor covers them too.
        queries += [
            MORQuery1D(y1, y1 + extent, 40.0, 70.0)
            for y1, extent in ((0.0, 1000.0), (100.0, 250.5), (310.0, 640.0))
        ]
        for query in queries:
            fetched, exact = forest.approximation_overhead(query)
            # The prediction is exact by construction: the histogram IS
            # the stored distribution and the b-range is the same.
            assert predictor.predict_fetched(query) == fetched
            assert exact == len(forest.query(query))

    def test_prediction_stale_after_updates(self):
        from repro.analysis import ForestCostPredictor
        from repro.core import LinearMotion1D, MobileObject1D, MORQuery1D
        from repro.indexes import HoughYForestIndex
        from repro.workloads import paper_model

        model = paper_model()
        forest = HoughYForestIndex(model, c=2, leaf_capacity=8)
        forest.insert(MobileObject1D(1, LinearMotion1D(500.0, 1.0, 0.0)))
        predictor = ForestCostPredictor.from_index(forest)
        forest.insert(MobileObject1D(2, LinearMotion1D(510.0, 1.0, 0.0)))
        query = MORQuery1D(500.0, 540.0, 5.0, 20.0)
        fetched, _ = forest.approximation_overhead(query)
        # Snapshot semantics: the predictor reflects build-time contents.
        assert predictor.predict_fetched(query) <= fetched

    def test_leaf_read_estimate_positive(self):
        from repro.analysis import ForestCostPredictor
        from repro.indexes import HoughYForestIndex
        from repro.workloads import SMALL_QUERIES, WorkloadGenerator

        gen = WorkloadGenerator(seed=56)
        forest = HoughYForestIndex(gen.model, c=2, leaf_capacity=16)
        for obj in gen.initial_population(300):
            forest.insert(obj)
        predictor = ForestCostPredictor.from_index(forest)
        query = gen.query(SMALL_QUERIES, now=40.0)
        assert predictor.predict_leaf_reads(query) >= 0.0


class TestAdvisor:
    def make_profile(self, **overrides):
        from repro.analysis import WorkloadProfile

        base = dict(
            n=10000,
            query_extent_fraction=0.01,
            updates_per_query=0.5,
        )
        base.update(overrides)
        return WorkloadProfile(**base)

    def model(self):
        from repro.workloads import paper_model

        return paper_model()

    def test_selective_queries_get_the_forest(self):
        from repro.analysis import recommend

        rec = recommend(self.model(), self.make_profile())
        assert rec.method == "hough-y-forest"
        assert rec.params["c"] == 16  # 1% queries -> capped at 16
        assert "eq. 2" in rec.rationale or "subterrain" in rec.rationale

    def test_update_heavy_gets_kdtree(self):
        from repro.analysis import recommend

        rec = recommend(
            self.model(), self.make_profile(updates_per_query=20.0)
        )
        assert rec.method == "dual-kdtree"
        assert "updates per query" in rec.rationale

    def test_instant_bounded_gets_mor1(self):
        from repro.analysis import recommend

        # Crossings scale ~n^2 * T, so the restricted structure only
        # fits small populations or very short windows — exactly §3.6's
        # caveat.  n=500 with a 5-unit window stays near-linear.
        rec = recommend(
            self.model(),
            self.make_profile(
                n=500, instant_only=True, max_lookahead=5.0,
                updates_per_query=0.0,
            ),
        )
        assert rec.method == "mor1-staggered"
        assert rec.params["window"] == 5.0

    def test_instant_large_population_falls_through(self):
        from repro.analysis import recommend

        rec = recommend(
            self.model(),
            self.make_profile(
                n=100000, instant_only=True, max_lookahead=5.0,
                updates_per_query=0.0,
            ),
        )
        assert rec.method != "mor1-staggered"

    def test_instant_with_huge_window_falls_through(self):
        from repro.analysis import recommend

        rec = recommend(
            self.model(),
            self.make_profile(
                instant_only=True, max_lookahead=1e6, updates_per_query=0.0
            ),
        )
        assert rec.method != "mor1-staggered"  # quadratic crossings

    def test_wide_queries_get_kdtree(self):
        from repro.analysis import recommend

        rec = recommend(
            self.model(), self.make_profile(query_extent_fraction=0.5)
        )
        assert rec.method == "dual-kdtree"

    def test_choose_c_monotone(self):
        from repro.analysis import choose_c

        extents = [0.5, 0.25, 0.1, 0.05, 0.01, 0.001]
        cs = [choose_c(e) for e in extents]
        assert cs == sorted(cs)
        assert cs[0] == 2 and cs[-1] == 16

    def test_profile_validation(self):
        import pytest as _pytest

        from repro.analysis import WorkloadProfile

        with _pytest.raises(ValueError):
            WorkloadProfile(n=-1, query_extent_fraction=0.1,
                            updates_per_query=0.0)
        with _pytest.raises(ValueError):
            WorkloadProfile(n=1, query_extent_fraction=0.0,
                            updates_per_query=0.0)
        with _pytest.raises(ValueError):
            WorkloadProfile(n=1, query_extent_fraction=0.1,
                            updates_per_query=-1.0)


class TestAdversarialInstance:
    def test_points_in_convex_position(self):
        from repro.analysis.adversarial import convex_position_points

        points = convex_position_points(100, radius=10.0)
        assert len(points) == 100
        import math

        for (x, y), _ in points:
            assert math.hypot(x, y) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            convex_position_points(0)

    def test_slab_queries_capture_exact_arcs(self):
        from repro.analysis.adversarial import (
            convex_position_points,
            tangent_slab_queries,
        )

        n = 500
        points = convex_position_points(n)
        queries = tangent_slab_queries(n, answer_size=10, query_count=25)
        for query in queries:
            size = sum(1 for p, _ in points if query.contains(*p))
            assert 8 <= size <= 12  # ~answer_size, up to rounding

    def test_pairwise_intersections_tiny(self):
        from repro.analysis.adversarial import (
            convex_position_points,
            pairwise_intersection_stats,
            tangent_slab_queries,
        )

        n = 1000
        points = convex_position_points(n)
        queries = tangent_slab_queries(n, answer_size=12, query_count=30)
        avg, worst = pairwise_intersection_stats(points, queries)
        assert worst <= 2
        assert avg < 0.5

    def test_validation(self):
        from repro.analysis.adversarial import tangent_slab_queries

        with pytest.raises(ValueError):
            tangent_slab_queries(10, answer_size=0, query_count=5)
        with pytest.raises(ValueError):
            tangent_slab_queries(10, answer_size=20, query_count=5)
        with pytest.raises(ValueError):
            tangent_slab_queries(10, answer_size=2, query_count=0)
