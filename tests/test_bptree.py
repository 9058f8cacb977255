"""Unit and property tests for the disk-based B+-tree."""

import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bptree import BPlusTree
from repro.bptree.tree import DELETE, INSERT, batch_order
from repro.errors import ObjectNotFoundError
from repro.io_sim import DiskSimulator

from .helpers import (
    apply_scalar,
    apply_sorted_beside_scalar,
    leaf_pages,
    leaf_pid_of,
    run_audited,
    same_pages,
    stored_records,
)


def make_tree(leaf_capacity=4, internal_capacity=None, buffer_pages=4):
    disk = DiskSimulator(buffer_pages=buffer_pages)
    return BPlusTree(disk, leaf_capacity, internal_capacity), disk


class TestBasicOperations:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.range_search(-1e9, 1e9) == []
        tree.check_invariants()

    def test_insert_and_get(self):
        tree, _ = make_tree()
        tree.insert(5, "five")
        tree.insert(1, "one")
        tree.insert(9, "nine")
        assert tree.get(5) == "five"
        assert tree.get(1) == "one"
        assert tree.contains(9)
        assert not tree.contains(2)
        tree.check_invariants()

    def test_duplicate_key_rejected(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        with pytest.raises(ValueError):
            tree.insert(1, "b")

    def test_get_missing_key(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        with pytest.raises(ObjectNotFoundError):
            tree.get(2)

    def test_delete_returns_value(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        assert tree.delete(1) == "a"
        assert len(tree) == 0
        with pytest.raises(ObjectNotFoundError):
            tree.delete(1)

    def test_capacity_validation(self):
        disk = DiskSimulator()
        with pytest.raises(ValueError):
            BPlusTree(disk, leaf_capacity=1)
        with pytest.raises(ValueError):
            BPlusTree(disk, leaf_capacity=4, internal_capacity=1)

    def test_tuple_keys(self):
        tree, _ = make_tree()
        tree.insert((1.5, 3), "a")
        tree.insert((1.5, 1), "b")
        tree.insert((0.5, 9), "c")
        assert tree.range_search((1.0, -1), (2.0, 10**9)) == ["b", "a"]


class TestGrowth:
    def test_splits_increase_height(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        for i in range(100):
            tree.insert(i, i * 10)
        assert tree.height >= 3
        tree.check_invariants()
        for i in range(100):
            assert tree.get(i) == i * 10

    def test_reverse_and_shuffled_insertion_orders(self):
        for order in ("asc", "desc", "shuffled"):
            keys = list(range(200))
            if order == "desc":
                keys.reverse()
            elif order == "shuffled":
                random.Random(7).shuffle(keys)
            tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
            for k in keys:
                tree.insert(k, -k)
            tree.check_invariants()
            assert [k for k, _ in tree.items()] == sorted(keys)

    def test_range_search_matches_sorted_scan(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        rng = random.Random(42)
        keys = rng.sample(range(10000), 300)
        for k in keys:
            tree.insert(k, k)
        keys.sort()
        for _ in range(50):
            lo = rng.randint(-100, 10100)
            hi = lo + rng.randint(0, 4000)
            expected = [k for k in keys if lo <= k <= hi]
            assert tree.range_search(lo, hi) == expected


class TestShrinkage:
    def test_delete_everything(self):
        tree, disk = make_tree(leaf_capacity=4, internal_capacity=4)
        keys = list(range(150))
        for k in keys:
            tree.insert(k, k)
        random.Random(3).shuffle(keys)
        for i, k in enumerate(keys):
            assert tree.delete(k) == k
            if i % 10 == 0:
                tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1
        tree.check_invariants()
        # All pages but the root leaf should have been freed.
        assert disk.pages_in_use == 1

    def test_interleaved_inserts_and_deletes(self):
        tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
        shadow = {}
        rng = random.Random(11)
        for step in range(1500):
            if shadow and rng.random() < 0.45:
                key = rng.choice(list(shadow))
                assert tree.delete(key) == shadow.pop(key)
            else:
                key = rng.randint(0, 500)
                if key in shadow:
                    continue
                shadow[key] = rng.random()
                tree.insert(key, shadow[key])
            if step % 100 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == len(shadow)
        assert dict(tree.items()) == shadow


class TestIOAccounting:
    def test_search_io_is_logarithmic(self):
        tree, disk = make_tree(leaf_capacity=16, internal_capacity=16)
        for i in range(5000):
            tree.insert(i, i)
        disk.clear_buffer()
        before = disk.stats.snapshot()
        tree.get(3456)
        delta = disk.stats.snapshot() - before
        # Height is ~log_16(5000/16)+1; a point lookup reads one path.
        assert delta.reads <= tree.height
        assert delta.writes == 0

    def test_range_search_io_scales_with_answer(self):
        tree, disk = make_tree(leaf_capacity=16, internal_capacity=16)
        for i in range(2000):
            tree.insert(i, i)
        disk.clear_buffer()
        before = disk.stats.snapshot()
        result = tree.range_search(500, 900)
        delta = disk.stats.snapshot() - before
        assert len(result) == 401
        # path + ceil(K/B) leaves, with slack for partial leaves
        assert delta.reads <= tree.height + 401 // 8 + 2

    def test_buffered_repeat_search_cheaper(self):
        tree, disk = make_tree(leaf_capacity=16, internal_capacity=16)
        for i in range(2000):
            tree.insert(i, i)
        disk.clear_buffer()
        tree.get(100)
        before = disk.stats.snapshot()
        tree.get(100)  # same path should now be buffered
        delta = disk.stats.snapshot() - before
        assert delta.reads == 0


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=220,
    )
)
def test_property_matches_dict_model(ops):
    """The tree behaves exactly like a sorted dict under random workloads."""
    tree, _ = make_tree(leaf_capacity=4, internal_capacity=4)
    shadow = {}
    for op, key in ops:
        if op == "insert":
            if key in shadow:
                with pytest.raises(ValueError):
                    tree.insert(key, key)
            else:
                shadow[key] = key
                tree.insert(key, key)
        else:
            if key in shadow:
                assert tree.delete(key) == shadow.pop(key)
            else:
                with pytest.raises(ObjectNotFoundError):
                    tree.delete(key)
    tree.check_invariants()
    assert dict(tree.items()) == shadow
    assert [k for k, _ in tree.items()] == sorted(shadow)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=10**6), max_size=300),
    bounds=st.tuples(
        st.integers(min_value=-10, max_value=10**6),
        st.integers(min_value=-10, max_value=10**6),
    ),
)
def test_property_range_search(keys, bounds):
    tree, _ = make_tree(leaf_capacity=8, internal_capacity=8)
    for k in keys:
        tree.insert(k, k)
    lo, hi = min(bounds), max(bounds)
    assert tree.range_search(lo, hi) == sorted(k for k in keys if lo <= k <= hi)


class TestScalarAccounting:
    """The scalar verbs' page counts are part of the paper's figures
    (Fig. 9): CPU work on them must not move a single access."""

    #: (reads, writes, buffer_hits, pages_in_use) of the replay below
    #: under dirty-only write-back.  A write also refreshes the page's
    #: slot in the 4-page buffer, so at capacities 4 and 8, whose paths
    #: outgrow the buffer, clean ancestors get evicted and re-read.
    RECORDED = {
        4: (14705, 4765, 1472, 276),
        8: (6083, 3636, 4470, 107),
        341: (0, 2537, 3770, 3),
    }

    @pytest.mark.parametrize("leaf_capacity", sorted(RECORDED))
    def test_fixed_replay_matches_recorded_iostats(self, leaf_capacity):
        rng = random.Random(11)
        tree, disk = make_tree(leaf_capacity=leaf_capacity)
        live = []
        for step in range(3000):
            roll = rng.random()
            if live and roll < 0.35:
                tree.delete(live.pop(rng.randrange(len(live))))
            elif live and roll < 0.5:
                tree.get(rng.choice(live))
            else:
                key = (round(rng.uniform(0, 1000), 6), step)
                tree.insert(key, step)
                live.append(key)
        stats = disk.stats
        assert (
            stats.reads, stats.writes, stats.buffer_hits, disk.pages_in_use
        ) == self.RECORDED[leaf_capacity]
        tree.check_invariants()


@pytest.mark.parametrize("leaf_capacity", [4, 8, 42, 341])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_a_page_is_written_iff_it_changed(leaf_capacity, seed):
    """Every scalar insert and delete and every sorted batch, from a
    tree several levels deep down to an empty root: each ``write`` hands
    over a page whose content differs from what the disk holds, and no
    changed page is left unwritten."""
    rng = random.Random(seed)
    tree, disk = make_tree(leaf_capacity=leaf_capacity)
    live = []
    # The running count makes every key new, so no batch deletes a
    # record and puts the identical one back.
    serial = itertools.count()

    def fresh_key():
        return (rng.randrange(500), next(serial))

    def insert():
        live.append(fresh_key())
        run_audited(disk, tree.insert, live[-1], live[-1][1])

    def delete():
        run_audited(disk, tree.delete, live.pop(rng.randrange(len(live))))

    for _ in range(max(150, 3 * leaf_capacity)):
        insert()
    for _ in range(300):
        rng.choice([insert, delete])()
    for _ in range(3):
        leaving = rng.sample(live, rng.randint(0, len(live) * 3 // 5))
        arriving = [
            fresh_key() for _ in range(rng.randint(0, 2 * leaf_capacity))
        ]
        run_audited(
            disk,
            tree.apply_sorted,
            sorted_batch(leaving, [(key, key[1]) for key in arriving]),
        )
        live = sorted(set(live) - set(leaving)) + arriving
        tree.check_invariants()
    while live:
        delete()
    tree.check_invariants()
    assert disk.pages_in_use == 1


def sorted_batch(deletes, inserts):
    """``apply_sorted`` input from keys to drop and (key, value) to add."""
    ops = [(key, DELETE, None) for key in deletes]
    ops += [(key, INSERT, value) for key, value in inserts]
    ops.sort(key=batch_order)
    return ops


def tree_of(keys, leaf_capacity):
    """A tree holding ``key -> -key``, built by scalar inserts."""
    tree, _ = make_tree(leaf_capacity=leaf_capacity)
    for key in keys:
        tree.insert(key, -key)
    return tree


def scalar_twin(tree, ops):
    """A page-identical copy of ``tree`` with ``ops`` applied one by one."""
    twin = copy.deepcopy(tree)
    apply_scalar(twin, ops)
    return twin


@pytest.mark.writebatch
class TestApplySorted:
    def test_empty_batch_touches_nothing(self):
        tree, disk = make_tree()
        tree.insert(1, "a")
        before = disk.stats.snapshot()
        tree.apply_sorted([])
        assert (disk.stats.snapshot() - before).total == 0

    def test_same_key_delete_and_insert_in_one_batch(self):
        tree = tree_of(range(0, 40, 2), leaf_capacity=4)
        ops = sorted_batch(
            deletes=[6, 20], inserts=[(6, "six"), (20, "twenty"), (7, "new")]
        )
        assert [kind for key, kind, _ in ops if key == 6] == [DELETE, INSERT]
        apply_sorted_beside_scalar(tree, ops)
        assert tree.get(6) == "six" and tree.get(20) == "twenty"

    def test_structure_changes_mid_run_use_the_scalar_machinery(self):
        """One batch that merges down to a single leaf — borrow, merge
        and root shrink inside runs, page for page the scalar sequence
        — and one that grows back up by packing: the 300 keys land in
        one run on the root leaf, which becomes full leaves under full
        internal nodes where the scalar splits leave them half empty."""
        keys = list(range(200))
        tree = tree_of(keys, leaf_capacity=4)
        assert tree.height >= 3
        scalar = apply_sorted_beside_scalar(
            tree, sorted_batch(deletes=keys[3:], inserts=[])
        )
        assert same_pages(tree, scalar)
        assert tree.height == 1
        ops = sorted_batch(
            deletes=[0], inserts=[(k, k) for k in range(1000, 1300)]
        )
        scalar = apply_sorted_beside_scalar(tree, ops)
        assert not same_pages(tree, scalar)
        assert len(tree) == 302
        sizes = [len(items) for _, items in leaf_pages(tree)]
        assert len(sizes) == 76 and set(sizes) == {3, 4}  # ceil(302 / 4)
        assert len(leaf_pages(scalar)) > 140  # ascending: half-full leaves
        assert 3 <= tree.height < scalar.height

    def test_overfull_leaf_is_packed_into_evenly_filled_leaves(self):
        """A 272-record leaf taking an ascending run of 250: the scalar
        sequence splits at the median when only the first 70 have
        arrived and again later; the run packs 522 records as 261 +
        261."""
        records = [(key, key) for key in range(0, 544, 2)]
        tree = BPlusTree.bulk_load(
            DiskSimulator(), records, leaf_capacity=341, fill=0.8
        )
        ops = sorted_batch([], [(key, key) for key in range(600, 850)])
        scalar = apply_sorted_beside_scalar(tree, ops)
        assert [len(items) for _, items in leaf_pages(tree)] == [261, 261]
        assert [len(items) for _, items in leaf_pages(scalar)] == [
            171, 171, 180
        ]

    def test_one_run_splits_an_internal_node_three_ways(self):
        """Capacity 4 everywhere, 40 keys into a root leaf of 4: the 11
        packed leaves overfill the new root, which splits three ways
        (an internal node splitting by the same even rule), and the
        tree grows a second level in the same write-back."""
        tree = tree_of(range(4), leaf_capacity=4)
        ops = sorted_batch([], [(key, key) for key in range(10, 50)])
        apply_sorted_beside_scalar(tree, ops)
        assert tree.height == 3
        root = tree.disk.peek(tree.root_pid)
        assert [
            len(tree.disk.peek(pid).items) for _, pid, _ in root.items
        ] == [3, 4, 4]
        assert [len(items) for _, items in leaf_pages(tree)] == [4] * 11
        # The same rule one level down an existing tree: a full parent
        # handed six new leaves splits three ways under a new root.
        tree = BPlusTree.bulk_load(
            DiskSimulator(), [(key, key) for key in range(0, 160, 10)], 4
        )
        assert tree.height == 2
        fresh = [key for key in range(1, 30) if key % 10][:24]
        apply_sorted_beside_scalar(
            tree, sorted_batch([], [(key, key) for key in fresh])
        )
        assert tree.height == 3
        root = tree.disk.peek(tree.root_pid)
        assert [
            len(tree.disk.peek(pid).items) for _, pid, _ in root.items
        ] == [3, 3, 4]

    def test_duplicate_insert_raises_with_prefix_written_back(self):
        grouped = tree_of(range(10, 100, 10), leaf_capacity=4)
        # 5 becomes the new minimum of the first leaf: a prefix left
        # unwritten would leave the parent's routing key stale.
        ops = sorted_batch(deletes=[], inserts=[(5, "a"), (20, "dup"), (95, "z")])
        scalar = scalar_twin(grouped, ops[:1])
        with pytest.raises(ValueError, match="duplicate key 20"):
            grouped.apply_sorted(ops)
        grouped.check_invariants()
        assert same_pages(grouped, scalar)
        assert not grouped.contains(95)

    def test_absent_delete_raises_with_prefix_written_back(self):
        grouped = tree_of(range(10, 100, 10), leaf_capacity=4)
        ops = sorted_batch(deletes=[10, 55, 90], inserts=[(11, "a")])
        scalar = scalar_twin(grouped, ops[:2])
        with pytest.raises(ObjectNotFoundError, match="55"):
            grouped.apply_sorted(ops)
        grouped.check_invariants()
        assert same_pages(grouped, scalar)
        assert grouped.contains(90)

    def test_one_descent_and_one_write_back_per_touched_leaf(self):
        records = [(key, key) for key in range(0, 40000, 2)]
        tree = BPlusTree.bulk_load(
            DiskSimulator(), records, leaf_capacity=341, fill=0.8
        )
        minima = {items[0][0] for _, items in leaf_pages(tree)}
        rng = random.Random(3)
        # Odd keys are fresh and never a leaf minimum, and at 0.8 fill a
        # few records per leaf neither overfill nor underflow it: every
        # run is one whole leaf's share of the batch, and the pages are
        # the scalar sequence's.
        fresh = rng.sample(range(1, 40000, 2), 400)
        stale = [
            key - 1 for key in rng.sample(fresh, 200) if key - 1 not in minima
        ]
        ops = sorted_batch(deletes=stale, inserts=[(k, k) for k in fresh])
        leaves = {leaf_pid_of(tree, key) for key, _, _ in ops}
        before = tree.disk.stats.snapshot()
        pages_before = tree.disk.pages_in_use
        assert same_pages(tree, apply_sorted_beside_scalar(tree, ops))
        assert tree.disk.pages_in_use == pages_before
        cost = tree.disk.stats.snapshot() - before
        # No leaf minimum moves, so no routing entry and no ancestor
        # changes: the leaves are the only pages written.
        assert cost.writes == len(leaves)
        assert cost.reads <= tree.height * len(leaves)
        assert len(leaves) < len(ops) / 4  # the batch really did group


@pytest.mark.writebatch
@settings(max_examples=60, deadline=None)
@given(
    leaf_capacity=st.sampled_from([4, 8]),
    initial=st.sets(st.integers(min_value=0, max_value=120), max_size=90),
    batches=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from([DELETE, INSERT]),
                st.integers(min_value=0, max_value=120),
            ),
            max_size=70,
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_property_apply_sorted_equals_scalar_sequence(
    leaf_capacity, initial, batches
):
    """Random trees, random mixed batches, each beside the scalar calls
    on a copy: same records and no more I/O always, the same pages
    whenever the scalar calls split nothing, evenly packed leaves
    otherwise (small leaves make most runs end in a packing, borrow,
    merge or root change)."""
    tree = tree_of(sorted(initial), leaf_capacity)
    live = set(initial)
    for batch in batches:
        deletes, inserts = set(), {}
        for kind, key in batch:
            if kind == DELETE and key in live:
                deletes.add(key)
            elif kind == INSERT and (key not in live or key in deletes):
                inserts[key] = key * 3
        apply_sorted_beside_scalar(tree, sorted_batch(deletes, inserts.items()))
        live = (live - deletes) | set(inserts)
        assert [key for key, _ in stored_records(tree)] == sorted(live)


@pytest.mark.writebatch
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_apply_sorted_paper_sized_leaves(seed):
    """The paper's B = 341: batches big enough to pack and merge."""
    rng = random.Random(seed)
    universe = range(6000)
    initial = rng.sample(universe, rng.randint(0, 2500))
    tree = tree_of(initial, leaf_capacity=341)
    live = set(initial)
    for _ in range(rng.randint(1, 4)):
        deletes = set(rng.sample(sorted(live), rng.randint(0, len(live))))
        candidates = sorted(set(universe) - (live - deletes))
        inserts = rng.sample(candidates, rng.randint(0, 1500))
        apply_sorted_beside_scalar(
            tree, sorted_batch(deletes, [(key, key) for key in inserts])
        )
        live = (live - deletes) | set(inserts)
        assert [key for key, _ in stored_records(tree)] == sorted(live)
