"""Tests for the benchmark harness (sweeps, tables, method registry)."""

import importlib.util
import pathlib

import pytest

from repro.bench import Table, default_methods, run_sweep
from repro.indexes import PaperForestIndex
from repro.workloads import SMALL_QUERIES, paper_model

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestTable:
    def test_render_alignment(self):
        table = Table(headers=["N", "method-a"])
        table.rows = [[1000, 12.5], [20000, 3.25]]
        rendered = table.render("My title")
        lines = rendered.splitlines()
        assert lines[0] == "My title"
        assert "method-a" in lines[1]
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_column(self):
        table = Table(headers=["N", "x"])
        table.rows = [[1, 10], [2, 20]]
        assert table.column("x") == [10, 20]
        with pytest.raises(ValueError):
            table.column("missing")

    def test_csv_roundtrip(self, tmp_path):
        table = Table(headers=["N", "x"])
        table.rows = [[1, 10.5], [2, 20.25]]
        assert table.to_csv().splitlines() == ["N,x", "1,10.5", "2,20.25"]
        path = tmp_path / "out.csv"
        table.save_csv(str(path))
        assert path.read_text().splitlines()[0] == "N,x"


class TestDefaultMethods:
    def test_paper_set(self):
        methods = default_methods()
        assert set(methods) == {
            "segment-rstar",
            "dual-kdtree",
            "forest-c4",
            "forest-c6",
            "forest-c8",
        }

    def test_optional_baseline(self):
        methods = default_methods(forest_cs=(2,), include_segment_baseline=False)
        assert set(methods) == {"dual-kdtree", "forest-c2"}

    def test_forest_factories_build_the_published_structure(self):
        """`python -m repro figures` (``default_methods``) and `pytest
        benchmarks/` (``paper_methods``) draw the same forest: the
        paper's one speed band, ``2c`` observation trees and ``c``
        subterrain interval indexes — not the served index."""
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", ROOT / "benchmarks" / "conftest.py"
        )
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        model = paper_model()
        for methods in (default_methods(), bench_conftest.paper_methods()):
            forests = {
                name: factory(model)
                for name, factory in methods.items()
                if name.startswith("forest-c")
            }
            assert set(forests) == {"forest-c4", "forest-c6", "forest-c8"}
            for name, forest in forests.items():
                c = int(name.removeprefix("forest-c"))
                assert type(forest) is PaperForestIndex
                assert forest.c == c and len(forest.disks) == 3 * c
                assert forest.band_edges == [model.v_min, model.v_max]


class TestRunSweep:
    def test_small_sweep_collects_all_metrics(self):
        methods = default_methods(
            forest_cs=(2,), include_segment_baseline=False
        )
        sweep = run_sweep(
            methods,
            sizes=[100, 200],
            query_class=SMALL_QUERIES,
            ticks=10,
            query_instants=2,
            queries_per_instant=3,
            update_rate=0.01,
            seed=5,
            validate=True,
        )
        assert sweep.methods == ["dual-kdtree", "forest-c2"]
        assert sweep.sizes == [100, 200]
        for method in sweep.methods:
            for n in sweep.sizes:
                result = sweep.get(method, n)
                assert result.mismatches == 0  # exactness under the sweep
                assert len(result.query_ios) == 6
                assert result.space_pages > 0
        table = sweep.metric_table("avg_query_io")
        assert table.headers == ["N", "dual-kdtree", "forest-c2"]
        assert [row[0] for row in table.rows] == [100, 200]

    def test_sweeps_are_reproducible(self):
        methods = default_methods(
            forest_cs=(2,), include_segment_baseline=False
        )
        kwargs = dict(
            sizes=[120],
            query_class=SMALL_QUERIES,
            ticks=8,
            query_instants=2,
            queries_per_instant=3,
            update_rate=0.01,
            seed=9,
        )
        a = run_sweep(methods, **kwargs)
        b = run_sweep(methods, **kwargs)
        for key in a.results:
            assert a.results[key].query_ios == b.results[key].query_ios
            assert a.results[key].update_ios == b.results[key].update_ios


class TestChart:
    def test_render_chart_scales_bars(self):
        table = Table(headers=["N", "a", "b"])
        table.rows = [[100, 10.0, 20.0], [200, 40.0, 5.0]]
        chart = table.render_chart("Figure X", width=40)
        lines = chart.splitlines()
        assert lines[0] == "Figure X"
        bars = {
            line.split("|")[0].strip(): line.split("|")[1]
            for line in lines[1:]
            if "|" in line
        }
        # The max value (40.0) gets the full width.
        assert bars["200 a"].count("#") == 40
        assert bars["100 a"].count("#") == 10
        # Every bar has at least one mark.
        assert all(bar.count("#") >= 1 for bar in bars.values())

    def test_render_chart_empty(self):
        table = Table(headers=["N", "a"])
        assert table.render_chart() == ""

    def test_render_chart_non_numeric_cells(self):
        """Regression: non-numeric cells used to raise ValueError;
        they now render without a bar while numeric cells still chart."""
        table = Table(headers=["N", "io", "note"])
        table.rows = [[100, 10.0, "n/a"], [200, 40.0, None]]
        chart = table.render_chart("Mixed", width=40)
        lines = chart.splitlines()
        assert lines[0] == "Mixed"
        bars = {
            line.split("|")[0].strip(): line.split("|", 1)[1]
            for line in lines[1:]
            if "|" in line
        }
        assert bars["200 io"].count("#") == 40  # numeric max still scales
        assert bars["100 note"].strip() == "n/a"  # verbatim, no bar
        assert bars["200 note"].strip() == "None"
        assert "#" not in bars["100 note"] and "#" not in bars["200 note"]

    def test_render_chart_nan_and_inf_skipped(self):
        table = Table(headers=["N", "a"])
        table.rows = [[1, float("nan")], [2, float("inf")], [3, 5.0]]
        chart = table.render_chart(width=10)
        bars = {
            line.split("|")[0].strip(): line.split("|", 1)[1]
            for line in chart.splitlines()
            if "|" in line
        }
        assert bars["3 a"].count("#") == 10  # 5.0 is the only scalable max
        assert "#" not in bars["1 a"] and "#" not in bars["2 a"]

    def test_csv_roundtrip_with_mixed_cells(self, tmp_path):
        """to_csv must survive the same non-numeric cells the chart
        does, and parse back to the original strings."""
        import csv

        table = Table(headers=["N", "io", "note"])
        table.rows = [[100, 10.5, "n/a"], [200, 40.0, "slow, but ok"]]
        path = tmp_path / "mixed.csv"
        table.save_csv(str(path))
        with open(path, newline="") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["N", "io", "note"]
        assert parsed[1] == ["100", "10.5", "n/a"]
        assert parsed[2] == ["200", "40.0", "slow, but ok"]  # comma quoted
