"""Ablation: bulk construction vs incremental insertion of the forest.

Standing up the §3.5.2 structure over an existing fleet is a bulk job:
external-sort the ``(band, b, oid)`` records per observation tree and pack
leaves bottom-up, instead of paying ``N`` root-to-leaf inserts per
tree.  This bench charts total build I/O for both paths across
population sizes — the bulk path's pass-structured linear I/O versus
the incremental ``O(c N log_B N)``.
"""

from repro.bench import Table
from repro.indexes import HoughYForestIndex
from repro.workloads import WorkloadGenerator

from conftest import B_BPTREE, save_table


def run_build_comparison():
    table = Table(
        headers=["N", "bulk_io", "incremental_io", "ratio", "bulk_pages"]
    )
    for n in (1000, 2000, 4000, 25000):
        gen = WorkloadGenerator(seed=77)
        objects = gen.initial_population(n)
        bulk = HoughYForestIndex.bulk_build(
            gen.model, objects, c=4, leaf_capacity=B_BPTREE
        )
        bulk_io = sum(d.stats.total for d in bulk.disks)
        incremental = HoughYForestIndex(
            gen.model, c=4, leaf_capacity=B_BPTREE
        )
        for obj in objects:
            incremental.insert(obj)
        incremental_io = sum(d.stats.total for d in incremental.disks)
        table.rows.append(
            [
                n,
                bulk_io,
                incremental_io,
                round(incremental_io / bulk_io, 2),
                bulk.pages_in_use,
            ]
        )
    return table


def test_bulk_build_is_cheaper(benchmark):
    table = benchmark.pedantic(run_build_comparison, rounds=1, iterations=1)
    print(save_table("ablation_bulk_build", table,
                     "Ablation: forest bulk build vs incremental inserts"))
    ratios = table.column("ratio")
    # Bulk wins by a growing factor (log_B N per insert vs linear passes).
    assert all(r > 2.0 for r in ratios)
    assert ratios[-1] >= ratios[0]
