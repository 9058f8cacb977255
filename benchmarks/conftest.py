"""Shared fixtures for the figure-reproduction benchmarks.

Scenario sweeps are expensive (full §5 simulations), so they run once
per session and are shared by every figure that reads them (the paper
likewise extracts Figures 6, 8 and 9 from the same runs).

Scale note: the paper runs N = 100k..500k objects against 4096-byte
pages (B = 204/341).  Pure-Python substrates make that impractical, so
the benchmarks shrink both sides of the ratio: N = 1k..4k against
B = 25/42 (512-byte pages), keeping the paper's ``n = N/B`` regime —
hundreds to thousands of pages — so I/O counts land in comparable
ranges.  `EXPERIMENTS.md` records the mapping.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import Table, run_sweep
from repro.indexes import (
    DualKDTreeIndex,
    DualRTreeIndex,
    PaperForestIndex,
    SegmentRTreeIndex,
)
from repro.workloads import LARGE_QUERIES, SMALL_QUERIES

#: Scaled page capacities (see module docstring).
B_RSTAR = 25  # 512 // 20: four endpoints + pointer
B_BPTREE = 42  # 512 // 12: b-coordinate + speed + pointer

SIZES = [1000, 2000, 4000]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def paper_methods():
    """The §5 method set with scaled capacities: the forest as
    published (:class:`~repro.indexes.PaperForestIndex`)."""
    return {
        "segment-rstar": lambda m: SegmentRTreeIndex(m, page_capacity=B_RSTAR),
        "dual-rstar": lambda m: DualRTreeIndex(m, page_capacity=B_RSTAR),
        "dual-kdtree": lambda m: DualKDTreeIndex(m, leaf_capacity=B_BPTREE),
        "forest-c4": lambda m: PaperForestIndex(m, c=4, leaf_capacity=B_BPTREE),
        "forest-c6": lambda m: PaperForestIndex(m, c=6, leaf_capacity=B_BPTREE),
        "forest-c8": lambda m: PaperForestIndex(m, c=8, leaf_capacity=B_BPTREE),
    }


def save_table(name: str, table: Table, title: str) -> str:
    """Write a rendered table under benchmarks/results/ and return it.

    When every data cell is numeric an ASCII bar chart is appended to
    the saved file (the terminal stand-in for the paper's line plots).
    A machine-readable ``BENCH_{name}.json`` twin is written next to
    the ``.txt`` so result trajectories can be diffed across PRs
    without parsing rendered tables.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    rendered = table.render(title)
    chart = ""
    try:
        chart = table.render_chart(width=40)
    except (TypeError, ValueError):
        pass  # non-numeric series (e.g. a method-name column): table only
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(rendered + "\n")
        if chart:
            handle.write("\n" + chart + "\n")
    payload = {
        "name": name,
        "title": title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
    }
    json_path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return rendered


@pytest.fixture(scope="session")
def sizes():
    return list(SIZES)


@pytest.fixture(scope="session")
def table_saver():
    """Fixture handing tests the save_table helper."""
    return save_table


@pytest.fixture(scope="session")
def large_query_sweep():
    """One full scenario sweep with the 10% query class."""
    return run_sweep(
        paper_methods(),
        sizes=SIZES,
        query_class=LARGE_QUERIES,
        ticks=40,
        query_instants=5,
        queries_per_instant=20,
        update_rate=0.002,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_query_sweep():
    """One full scenario sweep with the 1% query class."""
    return run_sweep(
        paper_methods(),
        sizes=SIZES,
        query_class=SMALL_QUERIES,
        ticks=40,
        query_instants=5,
        queries_per_instant=20,
        update_rate=0.002,
        seed=42,
    )
