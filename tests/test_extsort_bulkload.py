"""Tests for external sorting and B+-tree bulk loading."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bptree import BPlusTree
from repro.io_sim import DiskSimulator
from repro.io_sim.extsort import RunFile, external_sort


class TestRunFile:
    def test_roundtrip(self):
        disk = DiskSimulator()
        run = RunFile(disk, page_capacity=4)
        run.append_all(range(10))
        assert list(run.scan()) == list(range(10))
        assert run.length == 10
        assert len(run.page_pids) == 3

    def test_destroy_frees_pages(self):
        disk = DiskSimulator()
        run = RunFile(disk, page_capacity=4)
        run.append_all(range(10))
        run.destroy()
        assert disk.pages_in_use == 0

    def test_empty(self):
        disk = DiskSimulator()
        run = RunFile(disk, page_capacity=4)
        run.append_all([])
        assert list(run.scan()) == []


class TestExternalSort:
    def test_sorts_correctly(self):
        disk = DiskSimulator()
        rng = random.Random(1)
        data = [rng.randint(0, 10**6) for _ in range(2000)]
        run = external_sort(disk, data, page_capacity=8, memory_pages=4)
        assert list(run.scan()) == sorted(data)

    def test_custom_key(self):
        disk = DiskSimulator()
        data = [("b", 2), ("a", 9), ("c", 1)]
        run = external_sort(
            disk, data, page_capacity=4, memory_pages=2,
            key=lambda r: r[1],
        )
        assert list(run.scan()) == [("c", 1), ("b", 2), ("a", 9)]

    def test_memory_validation(self):
        with pytest.raises(ValueError):
            external_sort(DiskSimulator(), [1], page_capacity=4, memory_pages=1)

    def test_io_has_pass_structure(self):
        """Sorting n pages with fan-in f takes ~n*(1+ceil(log_f(runs))) passes."""
        disk = DiskSimulator(buffer_pages=0)
        rng = random.Random(2)
        data = [rng.random() for _ in range(4096)]
        before = disk.stats.snapshot()
        run = external_sort(disk, data, page_capacity=16, memory_pages=4)
        delta = disk.stats.snapshot() - before
        data_pages = 4096 / 16  # 256 pages; 64 initial runs; fan-in 3
        # ceil(log_3 64) = 4 merge passes + run formation = 5 passes.
        # Each pass reads + writes every page once (2 I/Os per page).
        assert delta.total < 2 * data_pages * 7
        assert list(run.scan()) == sorted(data)

    def test_intermediate_runs_freed(self):
        disk = DiskSimulator()
        data = list(range(1000, 0, -1))
        run = external_sort(disk, data, page_capacity=8, memory_pages=3)
        # Only the final run's pages remain.
        assert disk.pages_in_use == len(run.page_pids)


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self):
        items = [(i, i * 10) for i in range(500)]
        bulk = BPlusTree.bulk_load(
            DiskSimulator(), items, leaf_capacity=8, internal_capacity=8
        )
        bulk.check_invariants()
        assert len(bulk) == 500
        assert list(bulk.items()) == items
        assert bulk.range_search(100, 110) == [i * 10 for i in range(100, 111)]

    def test_bulk_load_empty_and_single(self):
        empty = BPlusTree.bulk_load(DiskSimulator(), [], leaf_capacity=8)
        assert len(empty) == 0
        empty.check_invariants()
        single = BPlusTree.bulk_load(DiskSimulator(), [(1, "a")], leaf_capacity=8)
        assert single.get(1) == "a"
        single.check_invariants()

    def test_bulk_load_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(
                DiskSimulator(), [(2, 0), (1, 0)], leaf_capacity=8
            )
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(
                DiskSimulator(), [(1, 0), (1, 1)], leaf_capacity=8
            )
        with pytest.raises(ValueError):
            BPlusTree.bulk_load(
                DiskSimulator(), [(1, 0)], leaf_capacity=8, fill=0.0
            )

    def test_bulk_load_fill_factor(self):
        items = [(i, i) for i in range(400)]
        full = BPlusTree.bulk_load(DiskSimulator(), items, leaf_capacity=10)
        loose_disk = DiskSimulator()
        loose = BPlusTree.bulk_load(
            loose_disk, items, leaf_capacity=10, fill=0.5
        )
        loose.check_invariants()
        assert loose_disk.pages_in_use > 400 / 10  # more, half-full leaves
        # Room for inserts without immediate splits.
        height_before = loose.height
        for i in range(400, 440):
            loose.insert(i, i)
        assert loose.height == height_before

    @pytest.mark.parametrize("fill", [0.5, 0.67, 0.8, 1.0])
    def test_bulk_load_fill_factor_sweep(self, fill):
        """Leaf packing honours the fill factor across the range the
        index layers actually use — 0.8 is the forest generation
        rebuild's ``REBUILD_FILL``."""
        n, capacity = 600, 10
        items = [(i, i) for i in range(n)]
        disk = DiskSimulator()
        tree = BPlusTree.bulk_load(
            disk, items, leaf_capacity=capacity, fill=fill
        )
        tree.check_invariants()
        assert list(tree.items()) == items
        # Page accounting: leaves ~= ceil(n / floor(capacity*fill));
        # allow the index levels on top but no silent over-packing.
        per_leaf = max(1, int(capacity * fill))
        min_leaves = -(-n // capacity)         # packed at 100%
        max_leaves = -(-n // per_leaf) + 1     # packed at `fill`
        assert min_leaves <= disk.pages_in_use
        assert disk.pages_in_use <= 2 * max_leaves  # leaves + index
        # A partial fill leaves headroom: appends at the right edge
        # must not immediately deepen the tree.
        if fill <= 0.8:
            height = tree.height
            for i in range(n, n + capacity - per_leaf):
                tree.insert(i, i)
            assert tree.height == height

    def test_short_tail_never_leaves_an_underfull_page(self):
        """7 records at capacity 8, fill 0.8 used to pack as 4 + 3 —
        one leaf under half full.  Every small shape must come out a
        valid tree, whatever the tail."""
        for capacity in range(2, 13):
            for fill in (0.5, 0.67, 0.8, 1.0):
                for n in range(0, 8 * capacity):
                    items = [(i, i) for i in range(n)]
                    tree = BPlusTree.bulk_load(
                        DiskSimulator(), items, leaf_capacity=capacity,
                        fill=fill,
                    )
                    tree.check_invariants()

    def test_bulk_then_mutate(self):
        items = [(i, i) for i in range(300)]
        tree = BPlusTree.bulk_load(
            DiskSimulator(), items, leaf_capacity=8, fill=0.75
        )
        rng = random.Random(3)
        shadow = dict(items)
        for _ in range(400):
            if shadow and rng.random() < 0.5:
                key = rng.choice(list(shadow))
                assert tree.delete(key) == shadow.pop(key)
            else:
                key = rng.randint(0, 1000)
                if key not in shadow:
                    shadow[key] = key
                    tree.insert(key, key)
        tree.check_invariants()
        assert dict(tree.items()) == shadow

    def test_bulk_load_io_is_linear(self):
        disk = DiskSimulator(buffer_pages=0)
        items = [(i, i) for i in range(4000)]
        before = disk.stats.snapshot()
        BPlusTree.bulk_load(disk, items, leaf_capacity=16)
        delta = disk.stats.snapshot() - before
        pages = 4000 / 16
        assert delta.total < 4 * pages  # one write per page + index levels


@settings(max_examples=30, deadline=None)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=10**6), max_size=400),
    capacity=st.integers(min_value=2, max_value=32),
)
def test_property_bulk_load_equals_sorted_input(keys, capacity):
    items = [(k, k) for k in sorted(keys)]
    tree = BPlusTree.bulk_load(DiskSimulator(), items, leaf_capacity=capacity)
    tree.check_invariants()
    assert list(tree.items()) == items
