"""Tests for the external interval index (overlap reporting)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateObjectError,
    InvalidQueryError,
    ObjectNotFoundError,
)
from repro.interval import IntervalIndex, IntervalTree
from repro.io_sim import DiskSimulator

from .helpers import apply_sorted_beside_scalar, run_audited, same_pages


def brute_overlap(intervals, ql, qh):
    return sorted(
        payload
        for (left, right, payload) in intervals
        if left <= qh and right >= ql
    )


class TestIntervalTree:
    def test_empty(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        assert tree.overlapping(0, 100) == []
        tree.check_invariants()

    def test_basic_overlap_semantics(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        tree.insert(0, 10, "a")
        tree.insert(5, 15, "b")
        tree.insert(20, 30, "c")
        assert sorted(tree.overlapping(8, 9)) == ["a", "b"]
        assert sorted(tree.overlapping(10, 20)) == ["a", "b", "c"]
        assert tree.overlapping(16, 19) == []
        # Closed-interval boundary touches count as overlap.
        assert tree.overlapping(30, 99) == ["c"]

    def test_invalid_inputs(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        with pytest.raises(InvalidQueryError):
            tree.insert(5, 4, "x")
        with pytest.raises(InvalidQueryError):
            tree.overlapping(3, 2)

    def test_delete_by_handle(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        handle = tree.insert(0, 10, "a")
        tree.insert(2, 8, "b")
        assert tree.delete(handle) == "a"
        assert tree.overlapping(0, 100) == ["b"]
        tree.check_invariants()

    def test_duplicate_endpoints_allowed(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        for i in range(20):
            tree.insert(5.0, 9.0, i)
        assert sorted(tree.overlapping(6, 7)) == list(range(20))
        tree.check_invariants()

    def test_aggregates_maintained_under_churn(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        rng = random.Random(5)
        live = {}
        for step in range(800):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                handle, _ = live.pop(key)
                tree.delete(handle)
            else:
                left = rng.uniform(0, 1000)
                right = left + rng.uniform(0, 200)
                handle = tree.insert(left, right, step)
                live[step] = (handle, (left, right))
            if step % 100 == 0:
                tree.check_invariants()
        tree.check_invariants()
        intervals = [
            (lo, hi, key) for key, (_, (lo, hi)) in live.items()
        ]
        for _ in range(30):
            ql = rng.uniform(-50, 1100)
            qh = ql + rng.uniform(0, 300)
            assert sorted(tree.overlapping(ql, qh)) == brute_overlap(
                intervals, ql, qh
            )

    def test_query_io_beats_full_scan(self):
        disk = DiskSimulator(buffer_pages=0)
        tree = IntervalTree(disk, leaf_capacity=16)
        # Many short intervals spread over a long timeline: a narrow query
        # must not read every leaf.
        for i in range(4000):
            tree.insert(i * 10.0, i * 10.0 + 5.0, i)
        before = disk.stats.snapshot()
        result = tree.overlapping(20000.0, 20050.0)
        delta = disk.stats.snapshot() - before
        assert 0 < len(result) < 20
        total_leaves = 4000 / 8  # >= n/B pages at half fill
        assert delta.reads < total_leaves / 4


class TestIntervalIndex:
    def test_insert_delete_by_oid(self):
        index = IntervalIndex(DiskSimulator(), leaf_capacity=4)
        index.insert(7, 0.0, 5.0)
        assert 7 in index
        assert index.overlapping(1, 2) == [7]
        index.delete(7)
        assert 7 not in index
        assert len(index) == 0

    def test_duplicate_oid_rejected(self):
        index = IntervalIndex(DiskSimulator(), leaf_capacity=4)
        index.insert(7, 0.0, 5.0)
        with pytest.raises(DuplicateObjectError):
            index.insert(7, 1.0, 2.0)

    def test_delete_unknown_oid(self):
        index = IntervalIndex(DiskSimulator(), leaf_capacity=4)
        with pytest.raises(ObjectNotFoundError):
            index.delete(42)


@settings(max_examples=30, deadline=None)
@given(
    intervals=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        max_size=80,
    ),
    query=st.tuples(
        st.floats(min_value=-10, max_value=110, allow_nan=False),
        st.floats(min_value=-10, max_value=110, allow_nan=False),
    ),
)
def test_property_overlap_matches_brute_force(intervals, query):
    tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
    stored = []
    for i, (a, b) in enumerate(intervals):
        left, right = min(a, b), max(a, b)
        tree.insert(left, right, i)
        stored.append((left, right, i))
    ql, qh = min(query), max(query)
    assert sorted(tree.overlapping(ql, qh)) == brute_overlap(stored, ql, qh)
    tree.check_invariants()


class TestScalarAccounting:
    """Maintaining max-right incrementally is CPU work only: the page
    counts of the scalar verbs must not move by a single access."""

    #: (reads, writes, buffer_hits, pages_in_use) of the replay below
    #: under dirty-only write-back: a max-right that did not move
    #: dirties no ancestor.
    RECORDED = {
        4: (15694, 6964, 1465, 280),
        16: (4225, 3976, 4470, 51),
        255: (0, 3057, 4649, 3),
    }

    @pytest.mark.parametrize("leaf_capacity", sorted(RECORDED))
    def test_fixed_replay_matches_recorded_iostats(self, leaf_capacity):
        rng = random.Random(13)
        disk = DiskSimulator()
        tree = IntervalTree(disk, leaf_capacity)
        live = []
        for step in range(3000):
            if live and rng.random() < 0.4:
                tree.delete(live.pop(rng.randrange(len(live))))
            else:
                left = round(rng.uniform(0, 1000), 6)
                # Few distinct lengths: many deletes remove an interval
                # whose right endpoint *is* the leaf's aggregate.
                right = left + rng.choice([1.0, 5.0, 5.0, 50.0, 400.0])
                live.append(tree.insert(left, right, step))
            if step % 97 == 0:
                tree.overlapping(200.0, 260.0)
                tree.check_invariants()
        stats = disk.stats
        assert (
            stats.reads, stats.writes, stats.buffer_hits, disk.pages_in_use
        ) == self.RECORDED[leaf_capacity]
        tree.check_invariants()


@pytest.mark.parametrize("leaf_capacity", [4, 16, 255])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_a_page_is_written_iff_it_changed(leaf_capacity, seed):
    """Insert, delete and ``apply_batch`` under the written ≡ changed
    audit.  The few distinct lengths make most arrivals and many
    departures leave the leaf's max-right where it was, which must
    dirty no ancestor, while the long ones move it up the whole path."""
    rng = random.Random(seed)
    disk = DiskSimulator()
    tree = IntervalTree(disk, leaf_capacity)
    live = []

    def interval():
        left = round(rng.uniform(0, 1000), 6)
        length = rng.choice([1.0, 5.0, 5.0, 50.0, 400.0])
        return (left, left + length, len(live))

    def insert():
        live.append(run_audited(disk, tree.insert, *interval()))

    def delete():
        run_audited(disk, tree.delete, live.pop(rng.randrange(len(live))))

    for _ in range(max(150, 3 * leaf_capacity)):
        insert()
    for _ in range(300):
        rng.choice([insert, delete])()
    for _ in range(3):
        leaving = rng.sample(live, rng.randint(0, len(live) * 3 // 5))
        arriving = [
            interval() for _ in range(rng.randint(0, 2 * leaf_capacity))
        ]
        handles = run_audited(disk, tree.apply_batch, leaving, arriving)
        live = sorted(set(live) - set(leaving)) + handles
        tree.check_invariants()
    while live:
        delete()
    tree.check_invariants()
    assert disk.pages_in_use == 1


@pytest.mark.writebatch
class TestApplyBatch:
    def test_handles_are_minted_in_submission_order(self):
        grouped = IntervalTree(DiskSimulator(), leaf_capacity=4)
        scalar = IntervalTree(DiskSimulator(), leaf_capacity=4)
        intervals = [(50.0, 60.0, "c"), (10.0, 90.0, "a"), (50.0, 55.0, "b")]
        handles = grouped.apply_batch([], intervals)
        assert handles == [scalar.insert(*interval) for interval in intervals]
        assert grouped.overlapping(52, 53) == scalar.overlapping(52, 53)
        assert grouped.apply_batch(handles[:2], []) == []
        assert grouped.overlapping(0, 100) == ["b"]
        grouped.check_invariants()

    def test_empty_interval_rejected_before_anything_is_applied(self):
        tree = IntervalTree(DiskSimulator(), leaf_capacity=4)
        handle = tree.insert(1.0, 2.0, "kept")
        with pytest.raises(InvalidQueryError):
            tree.apply_batch([handle], [(3.0, 4.0, "x"), (9.0, 8.0, "bad")])
        assert tree.overlapping(0, 10) == ["kept"]

    def test_index_replaces_an_objects_interval_in_one_batch(self):
        index = IntervalIndex(DiskSimulator(), leaf_capacity=4)
        for oid in range(12):
            index.insert(oid, float(oid), oid + 5.0)
        index.apply_batch(
            delete_oids=[3, 4, 5],
            inserts=[(3, 100.0, 101.0), (20, 4.5, 4.6), (5, 4.5, 4.7)],
        )
        assert 4 not in index and 20 in index and len(index) == 12
        assert sorted(index.overlapping(100.0, 100.5)) == [3]
        assert sorted(index.overlapping(4.5, 4.55)) == [0, 1, 2, 5, 20]
        index.check_invariants()
        index.delete(20)  # the minted handle is the stored one

    @pytest.mark.parametrize(
        "deletes, inserts, error",
        [
            ([99], [], ObjectNotFoundError),
            ([1, 1], [], DuplicateObjectError),
            ([], [(2, 0.0, 1.0)], DuplicateObjectError),
            ([], [(50, 0.0, 1.0), (50, 2.0, 3.0)], DuplicateObjectError),
        ],
    )
    def test_index_rejects_a_bad_batch_untouched(self, deletes, inserts, error):
        index = IntervalIndex(DiskSimulator(), leaf_capacity=4)
        for oid in range(5):
            index.insert(oid, float(oid), oid + 1.0)
        with pytest.raises(error):
            index.apply_batch([0] + deletes, [(40, 7.0, 8.0)] + inserts)
        assert len(index) == 5 and 0 in index and 40 not in index
        assert sorted(index.overlapping(0.0, 10.0)) == [0, 1, 2, 3, 4]
        index.check_invariants()

    def test_augmented_runs_build_the_scalar_pages_and_aggregates(self):
        """The augmented tree through ``apply_sorted``, each batch
        beside the scalar calls on a copy: the same pages — routing
        keys *and* max-right aggregates — while nothing overfills, and
        where a run packs a leaf, stored aggregates that still equal
        the recomputed ones, whether the run could carry the aggregate
        record by record or had to rescan the leaf (few distinct
        lengths: many deletes remove a maximal right endpoint)."""
        from repro.bptree.tree import DELETE, INSERT, batch_order

        rng = random.Random(8)
        grouped = IntervalTree(DiskSimulator(), leaf_capacity=8)
        live = []
        for i in range(400):
            left = rng.uniform(0, 1000)
            right = left + rng.choice([1.0, 30.0, 30.0, 500.0])
            live.append((grouped.insert(left, right, i), right))
        packed = []
        for round_ in range(6):
            rng.shuffle(live)
            leaving, live = live[:150], live[150:]
            ops = [(handle, DELETE, None) for handle, _ in leaving]
            # Rounds alternate a trickle (no leaf overfills) and a flood.
            for i in range(rng.randint(0, 20) if round_ % 2 else 200):
                left = rng.uniform(0, 1000)
                right = left + rng.choice([1.0, 30.0, 30.0, 500.0])
                handle = (left, 10_000 * (round_ + 1) + i)
                ops.append((handle, INSERT, (right, i)))
                live.append((handle, right))
            ops.sort(key=batch_order)
            scalar = apply_sorted_beside_scalar(grouped._tree, ops)
            packed.append(not same_pages(grouped._tree, scalar))
            grouped.check_invariants()  # aggregates against a recompute
        assert True in packed and False in packed


@pytest.mark.writebatch
@settings(max_examples=40, deadline=None)
@given(
    leaf_capacity=st.sampled_from([4, 8]),
    batches=st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.floats(min_value=0, max_value=100, allow_nan=False),
                    st.floats(min_value=0, max_value=40, allow_nan=False),
                ),
                max_size=40,
            ),
            st.floats(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_property_apply_batch_equals_scalar_calls(leaf_capacity, batches):
    """Random interval batches: the same handles, answers and valid
    aggregates as one insert/delete call per interval."""
    grouped = IntervalTree(DiskSimulator(), leaf_capacity)
    scalar = IntervalTree(DiskSimulator(), leaf_capacity)
    live = {}
    for intervals, leave_share in batches:
        leaving = sorted(live)[: int(len(live) * leave_share)]
        arriving = [
            (left, left + length, len(live) + i)
            for i, (left, length) in enumerate(intervals)
        ]
        handles = grouped.apply_batch(leaving, arriving)
        for handle in leaving:
            scalar.delete(handle)
            del live[handle]
        assert handles == [scalar.insert(*interval) for interval in arriving]
        live.update(zip(handles, arriving))
        grouped.check_invariants()
        assert len(grouped) == len(scalar) == len(live)
        for ql, qh in ((0, 140), (20, 20), (35, 60), (99, 100)):
            assert sorted(grouped.overlapping(ql, qh)) == brute_overlap(
                live.values(), ql, qh
            )
