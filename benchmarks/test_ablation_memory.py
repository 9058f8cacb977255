"""Ablation: what an object costs in memory, and who holds it.

The served stack (a 4-shard hash-routed service over the Hough-Y
forest, the ledger's ``scan_100k`` shape) is loaded with 25,000 and
100,000 objects and its heap is charged to its owners, twice:

* ``packed`` — as served: observation-tree leaves are
  :class:`~repro.indexes.hough_y_forest.ObservationRecords` (four typed
  columns, 25 bytes a record) and the forest catalog is ``{oid:
  motion}``.
* ``list`` — the same service with every observation tree rebuilt, page
  for page, as a generic :class:`~repro.bptree.BPlusTree` whose leaves
  are lists of ``((band, b, oid), speed)`` tuples, and the catalog in
  the shape it had while the leaves were lists: ``{oid: (motion, sign,
  [b per tree])}``, the ``b`` floats shared with the tree keys.  Built
  here, from the classes that still exist — there is no switch in
  ``src/`` to flip.

Every figure is ``tracemalloc``'s own: the heap is measured with the
service loaded, then the owners are released one at a time, in the
order of the columns, and each is charged what the traced heap fell by.
An object reachable from two owners (the oid ``int`` is a key in five
dicts, the motion a value in two) is therefore paid for by the last —
the engine, released last; ``other`` is what is left (locks, metrics,
the query cache, the objects of the service itself).  The
registrations are built before the trace starts: the three floats and
the oid each one carries are the caller's (about 100 bytes that any
representation keeps alive) and are in no figure.  Rounded to a byte
per object the counts repeat from run to run (what moves is a few
hundred bytes of interpreter caches in ``other``).

The last two columns are the read side on a forest of one shard's size
(a quarter of the objects), built outside the trace: 300 cold 1 %-class
queries, the pages they read (identical by construction) and the wall
clock per query — the packed side through ``forest.query``, the list
side through the per-record loop it replaced.  The wall clock is
indicative only.
"""

import gc
import time
import tracemalloc

from repro import ShardedMotionService
from repro.bench import Table
from repro.bptree import BPlusTree
from repro.core import hough_y_matches
from repro.indexes import HoughYForestIndex
from repro.indexes.hough_y_forest import ObservationRecords
from repro.io_sim.pager import DiskSimulator
from repro.vector.ops import RegisterOp
from repro.workloads import SMALL_QUERIES, WorkloadGenerator

from conftest import save_table

SHARDS = 4
SIZES = (25_000, 100_000)
QUERIES = 300
OWNERS = [
    "tree_records", "tree_pages", "forest_catalog", "hybrid", "columns",
    "service", "engine",
]


def registrations(n):
    gen = WorkloadGenerator(seed=n)
    return gen.model, [
        RegisterOp(obj.oid, obj.motion.y0, obj.motion.v, obj.motion.t0)
        for obj in gen.initial_population(n)
    ]


def load(model, ops):
    """The ledger's load: one ``apply_batch`` of registrations."""
    service = ShardedMotionService(
        model.terrain.y_max, model.v_min, model.v_max, shards=SHARDS
    )
    assert not any(service.apply_batch(ops))
    return service


def forests_of(service):
    return [db._index._fast for db in service._shards]


def unpack(forests):
    """Rebuild every observation tree with list leaves and give the
    forest catalog back its ``(motion, sign, [b...])`` entries."""
    for forest in forests:
        catalog = {
            oid: (motion, forest._oriented(motion)[0], [])
            for oid, motion in forest._catalog.items()
        }
        oids = {oid: oid for oid in catalog}  # the objects the dicts share
        speeds = {}
        for key, tree in forest._trees.items():
            records = []
            for (band, b, oid), speed in tree.items():
                speed = speeds.setdefault(oid, speed)
                records.append(((band, b, oids[oid]), speed))
                catalog[oid][2].append(b)
            disk = DiskSimulator()
            plain = BPlusTree.bulk_load(
                disk, records, tree.leaf_capacity, fill=forest.REBUILD_FILL
            )
            assert plain.disk.pages_in_use == tree.disk.pages_in_use
            forest._trees[key] = plain
            forest._tree_disks[key] = disk
        forest._catalog = catalog


def release(service, owner):
    """Drop everything ``owner`` holds, in place."""
    hybrids = [db._index for db in service._shards]
    disks = [disk for hybrid in hybrids for disk in hybrid.disks]
    if owner == "tree_records":
        for disk in disks:
            for page in disk._pages.values():
                if page.meta["kind"] == "leaf":
                    page.items = None
    elif owner == "tree_pages":
        for disk in disks:
            disk._pages.clear()
            disk.clear_buffer()
    elif owner == "forest_catalog":
        for hybrid in hybrids:
            hybrid._fast._catalog = None
            hybrid._slow._motions = None
    elif owner == "hybrid":
        for hybrid in hybrids:
            hybrid._band = None
    elif owner == "columns":
        for db in service._shards:
            columns = db._columns
            columns._slots = None
            columns._oid = columns._y0 = columns._v = columns._t0 = None
    elif owner == "service":
        service._owner.clear()
    elif owner == "engine":
        for db in service._shards:
            db._motions = None


def by_owner(service):
    """Bytes each owner holds: what the traced heap falls by when it
    lets go, owners taken in order."""
    sizes = dict.fromkeys(OWNERS, 0)
    total, _ = held, _ = tracemalloc.get_traced_memory()
    for owner in OWNERS:
        release(service, owner)
        left, _ = tracemalloc.get_traced_memory()
        sizes[owner] = held - left
        held = left
    sizes["other"] = total - sum(sizes.values())
    return sizes, total


def list_leaf_query(forest, query):
    """The scan plan as it ran over list leaves: one Python call per
    fetched record."""
    return {
        oid
        for key, oriented, y_r, lo, hi in forest.scan_plan(query)
        for (_, b, oid), v in forest._trees[key].range_items(lo, hi)
        if hough_y_matches(1.0 / v, b, oriented, y_r)
    }


def read_side(n, leaves):
    """Pages and milliseconds per cold 1 %-class query on one shard's
    worth of objects, and the answers."""
    gen = WorkloadGenerator(seed=n + 1)
    forest = HoughYForestIndex.bulk_build(
        gen.model, gen.initial_population(n // SHARDS)
    )
    answer = HoughYForestIndex.query
    if leaves == "list":
        unpack([forest])
        answer = list_leaf_query
    answers, pages, elapsed = [], 0, 0.0
    for query in gen.queries(SMALL_QUERIES, 10.0, QUERIES):
        forest.clear_buffers()
        snap = forest.snapshot()
        started = time.perf_counter()
        answers.append(answer(forest, query))
        elapsed += time.perf_counter() - started
        pages += forest.io_cost_since(snap)
    return answers, pages / QUERIES, elapsed / QUERIES * 1e3


def heap_by_owner(n, leaves):
    model, ops = registrations(n)
    gc.collect()
    tracemalloc.start()
    try:
        service = load(model, ops)
        forests = forests_of(service)
        if leaves == "list":
            unpack(forests)
        packed = all(
            isinstance(page.items, ObservationRecords)
            for forest in forests
            for disk in forest.disks
            for page in disk._pages.values()
            if page.meta["kind"] == "leaf"
        )
        assert packed == (leaves == "packed")
        return by_owner(service)
    finally:
        tracemalloc.stop()


def run_memory_bench():
    table = Table(headers=[
        "objects", "leaves", *OWNERS, "other", "total",
        "pages_per_query", "query_ms",
    ])
    for n in SIZES:
        answers = {}
        for leaves in ("list", "packed"):
            sizes, total = heap_by_owner(n, leaves)
            answers[leaves], pages, query_ms = read_side(n, leaves)
            table.rows.append([
                n, leaves,
                *(round(sizes[o] / n) for o in (*OWNERS, "other")),
                round(total / n), round(pages, 2), round(query_ms, 3),
            ])
        assert answers["list"] == answers["packed"]
    return table


def test_bytes_per_object_by_owner(benchmark):
    table = benchmark.pedantic(run_memory_bench, rounds=1, iterations=1)
    print(save_table(
        "ablation_memory", table,
        "Ablation: service heap in bytes per object, by owner "
        "(4 shards; list-leaf vs packed; query_ms indicative)",
    ))
    rows = {(row[0], row[1]): dict(zip(table.headers, row))
            for row in table.rows}
    for n in SIZES:
        before, after = rows[(n, "list")], rows[(n, "packed")]
        assert after["pages_per_query"] == before["pages_per_query"]
        assert after["tree_records"] * 4 < before["tree_records"]
        assert after["forest_catalog"] * 2 < before["forest_catalog"]
        assert after["total"] <= 650
        for owner in ("hybrid", "service", "engine"):
            assert after[owner] == before[owner], owner
