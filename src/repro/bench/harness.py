"""Benchmark harness: method sweeps and the paper's result tables.

The harness runs the §5 scenario for each (method, N) combination and
collects the four metrics the paper plots:

* Figure 6 — average I/Os per query, 10% query class;
* Figure 7 — average I/Os per query, 1% query class;
* Figure 8 — space consumption in pages;
* Figure 9 — average I/Os per update.

One scenario run yields query I/O for its query class plus space and
update I/O; the benchmarks reuse runs across figures.  Results print as
aligned text tables (rows = N, columns = methods) so the bench output
is directly comparable to the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.model import MotionModel
from repro.indexes.base import MobileIndex1D
from repro.workloads.generator import (
    QueryClass,
    WorkloadConfig,
    WorkloadGenerator,
    paper_model,
)
from repro.workloads.scenario import Scenario, ScenarioResult

#: Builds a fresh index for a run.
MethodFactory = Callable[[MotionModel], MobileIndex1D]


def _as_float(cell: object) -> float | None:
    """``cell`` as a finite chartable number, or ``None`` if it isn't one."""
    if isinstance(cell, bool):
        return None
    try:
        value = float(cell)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


@dataclass
class SweepResult:
    """All scenario results of one sweep, indexed by (method, n)."""

    query_class: str
    results: Dict[tuple, ScenarioResult] = field(default_factory=dict)

    def get(self, method: str, n: int) -> ScenarioResult:
        return self.results[(method, n)]

    @property
    def methods(self) -> List[str]:
        return sorted({method for method, _ in self.results})

    @property
    def sizes(self) -> List[int]:
        return sorted({n for _, n in self.results})

    def metric_table(self, metric: str) -> "Table":
        """Build a table of one metric (``avg_query_io`` etc.) by (n, method)."""
        methods = self.methods
        table = Table(headers=["N"] + methods)
        for n in self.sizes:
            row: List[object] = [n]
            for method in methods:
                value = getattr(self.results[(method, n)], metric)
                row.append(round(value, 2) if isinstance(value, float) else value)
            table.rows.append(row)
        return table


@dataclass
class Table:
    """A plain text table, printable in the paper's rows/columns layout."""

    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def render(self, title: str = "") -> str:
        widths = [len(h) for h in self.headers]
        str_rows = [[str(c) for c in row] for row in self.rows]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(title)
        lines.append(
            "  ".join(h.rjust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def column(self, header: str) -> List[object]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def render_chart(
        self, title: str = "", width: int = 50, x_column: int = 0
    ) -> str:
        """ASCII bar chart: one bar per (row, series) pair.

        Turns the figure tables into something eyeballable in a
        terminal, mirroring how the paper presents its line plots —
        each non-x column is a series, bars scaled to the global max.
        """
        series = self.headers[:x_column] + self.headers[x_column + 1 :]
        values = []
        for row in self.rows:
            cells = row[:x_column] + row[x_column + 1 :]
            values.extend(
                v for v in (_as_float(c) for c in cells) if v is not None
            )
        top = max(values, default=0.0)
        if top <= 0:
            top = 1.0
        lines = []
        if title:
            lines.append(title)
        label_width = max(
            (len(f"{row[x_column]} {name}") for row in self.rows
             for name in series),
            default=8,
        )
        for row in self.rows:
            x_value = row[x_column]
            cells = row[:x_column] + row[x_column + 1 :]
            for name, cell in zip(series, cells):
                value = _as_float(cell)
                label = f"{x_value} {name}".ljust(label_width)
                if value is None:
                    # Non-numeric cell: no bar, just the value verbatim.
                    lines.append(f"{label} | {cell}")
                    continue
                bar = "#" * max(1, round(width * value / top))
                lines.append(f"{label} |{bar} {cell}")
            lines.append("")
        return "\n".join(lines).rstrip()

    def to_csv(self) -> str:
        """Comma-separated rendering (header line + one line per row)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())


def run_sweep(
    methods: Dict[str, MethodFactory],
    sizes: Sequence[int],
    query_class: QueryClass,
    ticks: int = 60,
    query_instants: int = 5,
    queries_per_instant: int = 20,
    update_rate: float = 0.002,
    seed: int = 0,
    validate: bool = False,
) -> SweepResult:
    """Run the scenario for every (method, N) pair.

    ``update_rate`` scales the paper's 200-updates-per-tick to the
    population size (200 / 100k = 0.2% per tick).
    """
    sweep = SweepResult(query_class=query_class.name)
    for n in sizes:
        config = WorkloadConfig(
            n=n,
            updates_per_tick=max(1, int(n * update_rate)),
            ticks=ticks,
            query_instants=query_instants,
            queries_per_instant=queries_per_instant,
            seed=seed,
        )
        for name, factory in methods.items():
            generator = WorkloadGenerator(seed=seed)
            scenario = Scenario(config, generator)
            index = factory(scenario.model)
            result = scenario.run(index, query_class, validate=validate)
            sweep.results[(name, n)] = result
    return sweep


def default_methods(
    forest_cs: Sequence[int] = (4, 6, 8),
    include_segment_baseline: bool = True,
) -> Dict[str, MethodFactory]:
    """The paper's §5 method set: segments-R*, dual kd-tree, B+-forest
    (as published: one speed band, subterrain interval indexes)."""
    from repro.indexes.dual_point import DualKDTreeIndex
    from repro.indexes.hough_y_forest import PaperForestIndex
    from repro.indexes.segment_rtree import SegmentRTreeIndex

    methods: Dict[str, MethodFactory] = {}
    if include_segment_baseline:
        methods["segment-rstar"] = lambda m: SegmentRTreeIndex(m)
    methods["dual-kdtree"] = lambda m: DualKDTreeIndex(m)
    for c in forest_cs:
        methods[f"forest-c{c}"] = (
            lambda m, c=c: PaperForestIndex(m, c=c)
        )
    return methods
