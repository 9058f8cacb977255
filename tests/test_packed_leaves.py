"""A leaf is columns, not tuples (DESIGN.md §5.7).

The observation trees keep a leaf's ``((band, b, oid), speed)`` records
as four typed arrays and the forest filters a fetched slice in one
vectorised call.  Neither may be visible on the paper's axis or in an
answer, so this file pins: the container against the list it replaces,
the packed tree against the list-leaf tree page for page, the block
read against ``range_items`` read for read, the column filter against
the scalar predicate bit for bit — and the one thing that does change,
the bytes an object costs.
"""

import bisect
import random
import tracemalloc
from operator import itemgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import ShardedMotionService
from repro.bptree import BPlusTree
from repro.bptree.tree import DELETE, INSERT, batch_order
from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    hough_y_matches,
    reflect_motion,
    reflect_query,
)
from repro.indexes import HoughYForestIndex
from repro.indexes.hough_y_forest import ObservationRecords, ObservationTree
from repro.io_sim.pager import DiskSimulator
from repro.vector.ops import RegisterOp

from .helpers import PAPER_MODEL, tree_structure
from .test_forest_bands import on_edge_cases, populations
from .test_forest_scan_plan import EDGE_QUERIES, any_queries, edge_population

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max

# Few distinct values per field, so draws tie on ``b`` across oids and
# on ``(b, oid)`` across bands.
keys = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.sampled_from((-3.5, 0.0, 0.25, 7.0, 1e9)),
    st.integers(min_value=-4, max_value=4),
)
speeds = st.floats(min_value=V_MIN, max_value=V_MAX)
probes = st.tuples(
    st.integers(min_value=-1, max_value=3),
    st.sampled_from((-4.0, -3.5, 0.0, 0.1, 0.25, 7.0, 1e9, 2e9)),
    st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.sampled_from((float("-inf"), float("inf"))),
    ),
)


# -- (a) the container is the list it replaces ---------------------------------


@st.composite
def container_ops(draw):
    kind = draw(
        st.sampled_from(
            ("insert", "pop_at", "pop_last", "pop_first", "slice",
             "truncate", "extend")
        )
    )
    if kind == "insert":
        return (kind, (draw(keys), draw(speeds)))
    if kind == "extend":
        return (kind, draw(st.lists(st.tuples(keys, speeds), max_size=4)),
                draw(st.booleans()))
    return (kind, draw(st.integers(min_value=0, max_value=40)),
            draw(st.integers(min_value=0, max_value=40)))


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(container_ops(), max_size=40),
    lookups=st.lists(st.one_of(keys, probes), max_size=12),
)
def test_packed_records_behave_like_the_list_of_records(ops, lookups):
    packed, plain = ObservationRecords(), []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            record = op[1]
            idx, found = packed.find(record[0])
            assert idx == bisect.bisect_left(
                plain, record[0], key=itemgetter(0)
            )
            assert found == (idx < len(plain) and plain[idx][0] == record[0])
            if not found:
                packed.insert(idx, record)
                plain.insert(idx, record)
        elif kind == "extend":
            # Past the current maximum, so the run stays sorted.
            top = plain[-1][0][0] + 1 if plain else 0
            if top > 127:  # the band column is int8
                continue
            more = sorted(
                {(top, b, oid): v for (_, b, oid), v in op[1]}.items()
            )
            packed.extend(ObservationRecords(more) if op[2] else more)
            plain.extend(more)
        elif not plain:
            continue
        elif kind == "pop_at":
            i = op[1] % len(plain)
            assert packed.pop(i) == plain.pop(i)
        elif kind == "pop_last":
            assert packed.pop() == plain.pop()
        elif kind == "pop_first":
            assert packed.pop(0) == plain.pop(0)
        elif kind == "slice":
            lo, hi = sorted(op[1:])
            part = packed[lo:hi]
            assert isinstance(part, ObservationRecords)
            assert part == plain[lo:hi] and list(part) == plain[lo:hi]
        elif kind == "truncate":
            k = op[1] % (len(plain) + 1)
            del packed[k:]
            del plain[k:]
        assert len(packed) == len(plain) and bool(packed) == bool(plain)
        assert list(packed) == plain and packed == plain
        assert packed == ObservationRecords(plain)
        if plain:
            assert packed[0] == plain[0] and packed[-1] == plain[-1]
    for key in lookups + [record[0] for record in plain]:
        idx, found = packed.find(key)
        assert idx == bisect.bisect_left(plain, key, key=itemgetter(0))
        assert found == (idx < len(plain) and plain[idx][0] == key)
    assert packed != plain + [((9, 0.0, 0), 1.0)]


def test_a_record_read_back_is_the_plain_tuple_that_went_in():
    record = ((1, 0.25, -7), 1.5)
    records = ObservationRecords([record])
    got = records[0]
    assert got == record
    assert [type(x) for x in got[0]] == [int, float, int]
    assert type(got[1]) is float
    assert sum(col.itemsize for col in records.columns) == 25


# -- (b) one tree implementation: page for page the list-leaf tree -------------


@st.composite
def tree_scripts(draw):
    """Bulk load, then scalar and grouped steps, over one key universe."""
    universe = draw(
        st.lists(st.tuples(keys, speeds), min_size=1, max_size=60,
                 unique_by=itemgetter(0))
    )
    loaded = draw(st.integers(min_value=0, max_value=len(universe)))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("scalar", "grouped")),
                st.lists(st.integers(min_value=0, max_value=len(universe) - 1),
                         min_size=1, max_size=12, unique=True),
            ),
            max_size=8,
        )
    )
    return universe, loaded, steps


def drive(tree_class, script, capacity, fill):
    universe, loaded, steps = script
    disk = DiskSimulator()
    present = dict(sorted(universe[:loaded], key=itemgetter(0)))
    tree = tree_class.bulk_load(
        disk, list(present.items()), capacity, fill=fill
    )
    for mode, picks in steps:
        ops = []
        for i in picks:
            key, value = universe[i]
            ops.append((key, DELETE if key in present else INSERT, value))
        ops.sort(key=batch_order)
        if mode == "grouped":
            tree.apply_sorted(ops)
        for key, kind, value in ops:
            if kind == INSERT:
                present[key] = value
                if mode == "scalar":
                    tree.insert(key, value)
            else:
                del present[key]
                if mode == "scalar":
                    assert tree.delete(key) == value
    tree.check_invariants()
    return tree, present


@settings(max_examples=120, deadline=None)
@given(
    script=tree_scripts(),
    capacity=st.sampled_from((4, 5, 8)),
    fill=st.sampled_from((1.0, 0.8)),
)
def test_packed_tree_is_the_list_leaf_tree_page_for_page(
    script, capacity, fill
):
    plain, present = drive(BPlusTree, script, capacity, fill)
    packed, _ = drive(ObservationTree, script, capacity, fill)
    assert tree_structure(packed) == tree_structure(plain)
    assert packed.disk.stats.snapshot() == plain.disk.stats.snapshot()
    assert packed.disk.pages_allocated == plain.disk.pages_allocated
    assert packed.disk.pages_in_use == plain.disk.pages_in_use
    assert (len(packed), packed.height) == (len(plain), plain.height)
    assert list(packed.items()) == sorted(present.items())
    for pid in range(packed.disk.pages_allocated):
        page = packed.disk.peek(pid)
        if page is not None:
            assert isinstance(page.items, ObservationRecords) == (
                page.meta["kind"] == "leaf"
            )
            assert page.meta == plain.disk.peek(pid).meta


# -- (c) the block read makes range_items' reads -------------------------------


def reads_of(tree, scan, lo, hi):
    """Pids handed to ``disk.read`` while ``scan(lo, hi)`` runs from a
    cold buffer, and the records it produced."""
    disk = tree.disk
    pids = []

    def read(pid):
        pids.append(pid)
        return type(disk).read(disk, pid)

    disk.clear_buffer()
    disk.read = read
    try:
        produced = list(scan(tree, lo, hi))
    finally:
        del disk.read
    return pids, produced


def items_scan(tree, lo, hi):
    return tree.range_items(lo, hi)


def columns_scan(tree, lo, hi):
    for b, oid, speed in tree.range_columns(lo, hi):
        assert len(b) == len(oid) == len(speed)
        yield from zip(b.tolist(), oid.tolist(), speed.tolist())


def assert_same_reads(tree, lo, hi):
    before = tree.disk.stats.snapshot()
    item_pids, records = reads_of(tree, items_scan, lo, hi)
    item_cost = tree.disk.stats.snapshot() - before
    before = tree.disk.stats.snapshot()
    column_pids, rows = reads_of(tree, columns_scan, lo, hi)
    assert column_pids == item_pids
    assert tree.disk.stats.snapshot() - before == item_cost
    assert rows == [(b, oid, v) for (_, b, oid), v in records]
    return item_pids, records


def packed_tree(n, capacity=4):
    records = [((i % 2, float(i // 2), i), 1.0 + i) for i in range(n)]
    records.sort(key=itemgetter(0))
    return ObservationTree.bulk_load(DiskSimulator(), records, capacity)


def test_range_columns_reads_what_range_items_reads():
    inf = float("inf")
    whole = ((-1, -inf, -inf), (9, inf, inf))
    for n in (0, 3):  # the empty tree, a single leaf
        tree = packed_tree(n)
        assert tree.height == 1
        for lo, hi in (whole, ((0, 1.0, -inf), (0, 1.0, inf))):
            pids, _ = assert_same_reads(tree, lo, hi)
            assert pids == [tree.root_pid]
    tree = packed_tree(24)
    leaves = [
        (pid, list(items))
        for pid, kind, _, items in tree_structure(tree)
        if kind == "leaf"
    ]
    assert len(leaves) == 6
    first, second = leaves[1], leaves[2]
    # Ends exactly on a leaf's last record: nothing says so until the
    # next leaf's first record is seen.
    pids, records = assert_same_reads(tree, first[1][0][0], first[1][-1][0])
    assert pids[-2:] == [first[0], second[0]]
    assert records == first[1]
    # Starts past a leaf's end: the descent lands on the leaf whose
    # minimum is below the probe, finds nothing, follows the chain.
    band, b, oid = first[1][-1][0]
    pids, records = assert_same_reads(
        tree, (band, b, oid + 0.5), second[1][0][0]
    )
    assert pids[-2:] == [first[0], second[0]]
    assert records == second[1][:1]
    # Every record, every ±inf probe, a range between two bands.
    assert_same_reads(tree, *whole)
    assert_same_reads(tree, (0, 5.0, -inf), (0, 5.0, inf))
    assert_same_reads(tree, (0, 99.0, -inf), (1, -1.0, inf))


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(st.tuples(keys, speeds), max_size=40,
                     unique_by=itemgetter(0)),
    lo=probes,
    hi=probes,
)
def test_range_columns_reads_what_range_items_reads_anywhere(records, lo, hi):
    tree = ObservationTree.bulk_load(
        DiskSimulator(), sorted(records, key=itemgetter(0)), 4
    )
    assert_same_reads(tree, lo, hi)


# -- (d) the column filter is the scalar predicate, bit for bit ----------------


def scalar_candidates(forest, query):
    """The scan plan the way it ran before the leaves were packed: one
    ``hough_y_matches`` call per record of ``range_items``."""
    for key, oriented, y_r, lo, hi in forest.scan_plan(query):
        for (_, b, oid), v in forest._trees[key].range_items(lo, hi):
            yield oid, hough_y_matches(1.0 / v, b, oriented, y_r)


def assert_filter_is_scalar(forest, query):
    expected = list(scalar_candidates(forest, query))
    assert list(forest._candidates(query)) == expected
    assert forest.query(query) == {oid for oid, hit in expected if hit}
    assert forest.approximation_overhead(query) == (
        len(expected), sum(hit for _, hit in expected)
    )


@settings(max_examples=200, deadline=None)
@given(case=on_edge_cases())
def test_column_filter_equals_scalar_on_query_edges_at_band_corners(case):
    motion, query = case
    for c in (1, 4):
        forest = HoughYForestIndex(PAPER_MODEL, c=c)
        forest.insert(MobileObject1D(0, motion))
        forest.insert(
            MobileObject1D(-1, reflect_motion(motion, Y_MAX))
        )
        assert_filter_is_scalar(forest, query)
        assert_filter_is_scalar(forest, reflect_query(query, Y_MAX))


@settings(max_examples=100, deadline=None)
@given(population=populations(), query=any_queries())
@example(population=edge_population(), query=EDGE_QUERIES[0])
def test_column_filter_equals_scalar_on_any_population(population, query):
    forest = HoughYForestIndex(PAPER_MODEL, c=4, leaf_capacity=4)
    for obj in population:
        forest.insert(obj)
    assert_filter_is_scalar(forest, query)


def test_column_filter_equals_scalar_on_the_edge_queries():
    population = edge_population()
    mirrored = [
        MobileObject1D(obj.oid, reflect_motion(obj.motion, Y_MAX))
        for obj in population
    ]
    for objects, flip in ((population, False), (mirrored, True)):
        forest = HoughYForestIndex.bulk_build(
            PAPER_MODEL, objects, c=4, leaf_capacity=4
        )
        for query in EDGE_QUERIES:
            if flip:
                query = reflect_query(query, Y_MAX)
            assert_filter_is_scalar(forest, query)
            assert forest.approximation_overhead(query)[1] > 0


# -- (e) no view of a leaf outlives its scan step ------------------------------


def test_no_view_of_a_leaf_survives_the_scan():
    """An ``array`` that exports its buffer cannot be resized: a numpy
    view of a live column, kept anywhere past its scan step, would turn
    the next insert into that leaf into a ``BufferError``."""
    rng = random.Random(5)
    population = [
        MobileObject1D(
            oid,
            LinearMotion1D(
                rng.uniform(0, Y_MAX),
                rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX),
                rng.uniform(0, 20),
            ),
        )
        for oid in range(600)
    ]
    forest = HoughYForestIndex.bulk_build(
        PAPER_MODEL, population, c=2, leaf_capacity=16
    )
    query = EDGE_QUERIES[4]
    read = []
    for disk in forest.disks:
        disk.clear_buffer()
        disk.read = lambda pid, disk=disk: (
            read.append((disk, pid)) or type(disk).read(disk, pid)
        )
    try:
        answer = forest.query(query)
        held = list(forest._candidates(query))
    finally:
        for disk in forest.disks:
            del disk.read
    assert answer and held
    leaves = [
        disk.peek(pid) for disk, pid in read
        if disk.peek(pid).meta["kind"] == "leaf"
    ]
    assert len(leaves) > 8
    for leaf in leaves:
        leaf.items.append(leaf.items.pop())  # resizes every column twice
    # Not even while a scan is suspended holding the slice it yielded.
    key, _, _, lo, hi = next(forest.scan_plan(query))
    tree = forest._trees[key]
    scan = tree.range_columns(lo, hi)
    columns = next(scan)
    leaf = tree._descend(lo)[-1][0]
    leaf.items.append(leaf.items.pop())
    assert len(columns[0]) == len(columns[1]) == len(columns[2])
    scan.close()


# -- (f) what an object costs --------------------------------------------------


def test_service_heap_budget_per_object():
    """tracemalloc after bulk-registering 20,000 objects into the
    ledger's service shape (4 hash shards): at most 0.65 KB an object.
    A list-of-tuples leaf record alone is 144 bytes x 4 trees; with the
    ``b`` keys repeated in the catalog the parent stood at 1.24 KB."""
    n = 20_000
    rng = random.Random(11)
    ops = [
        RegisterOp(
            oid,
            rng.uniform(0, Y_MAX),
            rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX),
            rng.uniform(0, 10),
        )
        for oid in range(n)
    ]
    tracemalloc.start()
    try:
        service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4)
        assert not any(service.apply_batch(ops))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(service) == n
    assert held / n <= 650, f"{held / n:.0f} bytes per object"
    # No leaf anywhere keeps a tuple per record.
    for db in service._shards:
        for tree in db._index._fast._trees.values():
            for pid in range(tree.disk.pages_allocated):
                page = tree.disk.peek(pid)
                if page is not None and page.meta["kind"] == "leaf":
                    assert type(page.items) is ObservationRecords
