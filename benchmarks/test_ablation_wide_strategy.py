"""Ablation: queries wider than a subterrain — the paper's case (ii)
against the one scan plan the served forest uses at every width.

* ``paper`` — :class:`~repro.indexes.PaperForestIndex`: per fully
  contained subterrain one exact interval-stabbing subquery (E = 0 for
  the covered middle), plus two endpoint pieces on two other observation
  trees; one speed band, as published.
* ``paper+bands`` — the same structure and decomposition over the served
  speed-banded keys, so the plan is compared like for like.
* ``scan`` — :class:`~repro.indexes.HoughYForestIndex`: one ``b``-range
  scan per sign and band on the tree whose horizon lies inside the
  query.  Every speed's slab nests around ``[t1, t2]``, so the scan
  pays ``E = spread^2 * W / 2`` and no distance term, and reads
  contiguous leaves where the interval index reads leaves ordered by
  entry time.

All three must return identical answers query by query; the bench
compares cold-buffer pages per query.  (An earlier third variant that
cut a wide query into subterrain-aligned narrow pieces read more than
either and is retired; EXPERIMENTS.md keeps its numbers.)
"""

import random

from repro.bench import Table
from repro.core import MORQuery1D
from repro.indexes import HoughYForestIndex, PaperForestIndex
from repro.workloads import WorkloadGenerator

from conftest import B_BPTREE, save_table

VARIANTS = {
    "paper": PaperForestIndex,
    "paper+bands": type(
        "BandedPaperForest",
        (PaperForestIndex,),
        {"BAND_RATIO": HoughYForestIndex.BAND_RATIO},
    ),
    "scan": HoughYForestIndex,
}

#: (lowest extent, highest extent, shortest window, longest window)
QUERY_CLASSES = [
    (300, 400, 30, 30),
    (260, 300, 20, 20),
    (500, 750, 20, 20),
    (300, 400, 0, 0),
    (250, 1000, 0, 60),
]
QUERIES_PER_CELL = 40


def build(n, c, leaf_capacity, bulk, seed=71):
    """The three variants over one population of ``n`` objects."""
    gen = WorkloadGenerator(seed=seed)
    objects = gen.initial_population(n)
    forests = {}
    for name, cls in VARIANTS.items():
        if bulk:
            forests[name] = cls.bulk_build(
                gen.model, objects, c=c, leaf_capacity=leaf_capacity
            )
        else:
            forests[name] = cls(gen.model, c=c, leaf_capacity=leaf_capacity)
            for obj in objects:
                forests[name].insert(obj)
    return forests, gen.model.terrain.y_max


def wide_queries(rng, y_max, extents, windows, count=QUERIES_PER_CELL):
    queries = []
    for _ in range(count):
        extent = rng.uniform(*extents)
        y1 = rng.uniform(0, y_max - extent)
        t1 = rng.uniform(10, 40)
        queries.append(
            MORQuery1D(y1, y1 + extent, t1, t1 + rng.uniform(*windows))
        )
    return queries


def cold_pages(forests, queries):
    """Pages each variant reads per query against empty buffers, after
    checking that the variants agree on every answer."""
    pages = {name: [] for name in forests}
    answers = {name: [] for name in forests}
    for name, index in forests.items():
        for query in queries:
            index.clear_buffers()
            snap = index.snapshot()
            answers[name].append(index.query(query))
            pages[name].append(index.io_cost_since(snap))
    assert answers["scan"] == answers["paper"] == answers["paper+bands"], (
        "the plans disagree on an answer"
    )
    mean_answer = sum(len(a) for a in answers["scan"]) / len(queries)
    return pages, mean_answer


def mean(values):
    return round(sum(values) / len(values), 2)


def run_strategy_bench():
    table = Table(headers=[
        "B", "N", "load", "extent", "window",
        "paper", "paper+bands", "scan", "avg_answer",
    ])
    populations = [
        # The original protocol, the served shape, the paper's regime
        # (~940 leaves a tree).
        (B_BPTREE, 3000, False, QUERY_CLASSES[:1]),
        (None, 25000, True, QUERY_CLASSES),
        (B_BPTREE, 60000, True, QUERY_CLASSES[:1]),
    ]
    for leaf_capacity, n, bulk, classes in populations:
        forests, y_max = build(n, 4, leaf_capacity, bulk)
        rng = random.Random(n)
        for lo, hi, w_lo, w_hi in classes:
            queries = wide_queries(rng, y_max, (lo, hi), (w_lo, w_hi))
            pages, mean_answer = cold_pages(forests, queries)
            table.rows.append([
                leaf_capacity or 341, n, "bulk" if bulk else "scalar",
                f"{lo}-{hi}", f"{w_lo}-{w_hi}" if w_lo != w_hi else w_lo,
                mean(pages["paper"]), mean(pages["paper+bands"]),
                mean(pages["scan"]), round(mean_answer, 1),
            ])
    return table


def run_sweep_bench():
    """Width (in subterrains) × window, at the served ``c`` and at 8."""
    table = Table(headers=[
        "c", "subterrains", "window",
        "paper", "paper+bands", "scan", "ratio", "wins",
    ])
    for c in (4, 8):
        forests, y_max = build(25000, c, None, True)
        rng = random.Random(c)
        width = y_max / c
        for lo, hi in ((1.01, 1.3), (1.3, 2.0), (2.0, 3.0), (3.0, c)):
            for window in (0, 20, 100):
                queries = wide_queries(
                    rng, y_max, (lo * width, hi * width), (window, window)
                )
                pages, _ = cold_pages(forests, queries)
                table.rows.append([
                    c, f"{lo:g}-{hi:g}", window,
                    mean(pages["paper"]), mean(pages["paper+bands"]),
                    mean(pages["scan"]),
                    round(
                        sum(pages["scan"]) / sum(pages["paper+bands"]), 2
                    ),
                    sum(
                        scan <= paper
                        for scan, paper in zip(
                            pages["scan"], pages["paper+bands"]
                        )
                    ),
                ])
    return table


def test_scan_reads_no_more_than_the_paper_plan(benchmark):
    table = benchmark.pedantic(run_strategy_bench, rounds=1, iterations=1)
    print(save_table(
        "ablation_wide_strategy", table,
        "Ablation: wide queries, the paper's case (ii) vs one scan "
        "(cold pages/query)",
    ))
    for paper, banded, scan in zip(
        table.column("paper"), table.column("paper+bands"),
        table.column("scan"),
    ):
        assert scan <= banded <= paper


def test_width_window_sweep(benchmark):
    table = benchmark.pedantic(run_sweep_bench, rounds=1, iterations=1)
    print(save_table(
        "ablation_wide_sweep", table,
        "Ablation: scan / paper+bands by query width x window "
        "(25,000 objects, B = 341; wins of 40 queries)",
    ))
    # On the mean the scan reads no more in any cell; at c = 8 the
    # interval indexes cover more of a query and win single instant
    # queries two to three subterrains wide (the `wins` column).
    assert max(table.column("ratio")) <= 1.0
    for c, wins in zip(table.column("c"), table.column("wins")):
        assert c == 8 or wins == QUERIES_PER_CELL
