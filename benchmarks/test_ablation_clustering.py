"""Ablation: velocity clustering of the forest (paper §7).

"One idea is to cluster similarly moving objects into representative
clusters."  The forest does it inside every observation tree: records
sort by ``(speed band, b, oid)`` and a narrow query scans one ``b``-range
per band, each with the eq.-(1) spread of its band alone
(``HoughYForestIndex.BAND_RATIO``).  This bench sweeps the band ratio
through local subclasses and charts fetched-vs-exact records, per-query
I/O, scalar update I/O and space (in total and tree by tree) — at the
figure scale of the other
ablations and at the leaf size and per-shard populations the service
runs, where the band count that pays depends on how many leaves a tree
has to spare.
"""

from repro.bench import Table
from repro.indexes import HoughYForestIndex
from repro.workloads import SMALL_QUERIES, WorkloadGenerator

from conftest import B_BPTREE, save_table

#: ``BAND_RATIO`` → 1, 2, 3, 4, 6, 8 bands on the paper's model
#: (``v_max / v_min`` = 10.4); the first is the paper's structure, the
#: second the served default.
RATIOS = [float("inf"), 4.0, 2.2, 2.0, 1.5, 1.35]

#: ``(B, leaf_capacity argument, N)``.  The first is the figure scale,
#: loaded by scalar inserts like every other ablation; the other two
#: are one hash shard of the ledger's 10k and 100k workloads (default
#: 4 KiB pages, ``B = 341``), bulk-loaded the way the service loads.
SCALES = [(B_BPTREE, B_BPTREE, 3000), (341, None, 2500), (341, None, 25000)]

UPDATES = 150


def run_band_sweep():
    """The table, and per table row the ``(records, pages)`` of each
    observation tree."""
    trees = []
    table = Table(
        headers=[
            "B", "N", "bands", "fetched", "exact", "waste",
            "query_io", "update_io", "pages",
        ]
    )
    for b, leaf_capacity, n in SCALES:
        gen = WorkloadGenerator(seed=31)
        objects = gen.initial_population(n)
        queries = [gen.query(SMALL_QUERIES, now=40.0) for _ in range(120)]
        updates = [gen.random_update(obj, 40.0) for obj in objects[:UPDATES]]
        for ratio in RATIOS:
            forest_cls = type(
                "BandedForest", (HoughYForestIndex,), {"BAND_RATIO": ratio}
            )
            index = forest_cls(gen.model, c=4, leaf_capacity=leaf_capacity)
            if leaf_capacity is None:
                index.insert_batch(objects)
            else:
                for obj in objects:
                    index.insert(obj)
            fetched = exact = 0
            total_io = 0
            for query in queries:
                f, e = index.approximation_overhead(query)
                fetched += f
                exact += e
                index.clear_buffers()
                snap = index.snapshot()
                index.query(query)
                total_io += index.io_cost_since(snap)
            pages = index.pages_in_use
            trees.append([
                (len(tree), index._tree_disks[key].pages_in_use)
                for key, tree in index._trees.items()
            ])
            snap = index.snapshot()
            for obj in updates:
                index.update(obj)
            update_io = index.io_cost_since(snap) / UPDATES
            table.rows.append(
                [
                    b,
                    n,
                    len(index.band_edges) - 1,
                    fetched,
                    exact,
                    round((fetched - exact) / max(exact, 1), 2),
                    round(total_io / len(queries), 1),
                    round(update_io, 2),
                    pages,
                ]
            )
    return table, trees


def test_velocity_clustering_tradeoff(benchmark):
    table, trees = benchmark.pedantic(run_band_sweep, rounds=1, iterations=1)
    print(save_table("ablation_clustering", table,
                     "Ablation: speed bands of the forest's tree keys"))
    assert table.column("bands")[: len(RATIOS)] == [1, 2, 3, 4, 6, 8]
    blocks = [
        (table.rows[lo : lo + len(RATIOS)], trees[lo : lo + len(RATIOS)])
        for lo in range(0, len(table.rows), len(RATIOS))
    ]
    for (b, leaf_capacity, _), (rows, by_ratio) in zip(SCALES, blocks):
        _, _, _, _, _, waste, query_io, update_io, _ = zip(*rows)
        # More bands -> strictly less approximation waste (the §7
        # clustering payoff), by a large factor across the sweep...
        assert all(b < a for a, b in zip(waste, waste[1:]))
        assert waste[-1] < waste[0] / 4
        # ...for no extra space or update work.  Space, tree by tree:
        # a band moves records between leaves, never between trees, so
        # each tree holds the same records at every ratio; packed by
        # the bulk rule that is the same pages exactly, and grown by
        # median splits it is wherever random-order growth leaves a
        # B+-tree — around ln 2 full, one tree 50 pages and its twin 58
        # (which is why the forest's total is no 2 % matter now that
        # the band-blind interval indexes no longer pad it).
        for per_tree in zip(*by_ratio):
            records, pages = zip(*per_tree)
            assert len(set(records)) == 1
            if leaf_capacity is None:
                assert len(set(pages)) == 1
            else:
                for held in pages:
                    assert 0.6 <= records[0] / (held * b) <= 0.75
        assert max(update_io) <= 1.05 * min(update_io)
        # Pages are another matter: each band scan pays about one
        # boundary leaf, so eight bands never read fewer than two.
        assert query_io[-1] > query_io[1]
    figure, shard_10k, shard_100k = (
        [row[6] for row in rows] for rows, _ in blocks
    )
    # Where a tree has leaves to spare the served two bands beat the
    # paper's one by a third or more and sit within 10 % of the best
    # count; at five leaves a tree (2,500 objects, B = 341) no banding
    # pays — the crossover a size-adaptive band count would follow.
    for query_io in (figure, shard_100k):
        assert query_io[1] < 0.7 * query_io[0]
        assert query_io[1] <= 1.1 * min(query_io)
    assert shard_10k == sorted(shard_10k)
