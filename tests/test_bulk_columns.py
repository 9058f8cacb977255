"""Sort blocks, not records (DESIGN.md §5.8).

``external_sort`` moves pages of columns and ``bulk_build`` fills the
observation trees from one ``np.lexsort`` per run.  Nothing the paper's
axis can see may move, so this file pins: the block sort against the
record-at-a-time sort it replaced, **disk call for disk call** (equal
counts would not do: a 4-page LRU makes a read's cost depend on what
was touched before it); ``bulk_build`` against digests of the forests
the parent commit built; the vector admission test against the scalar
one, exception for exception; the crash hook; and that no leaf keeps a
buffer of the sort's arrays.
"""

import hashlib
import random
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearMotion1D, MobileObject1D
from repro.core.model import check_oid
from repro.errors import DuplicateObjectError, InvalidMotionError
from repro.indexes import HoughYForestIndex, PaperForestIndex
from repro.indexes import hough_y_forest
from repro.indexes.hough_y_forest import ObservationRecords, ObservationTree
from repro.io_sim.extsort import external_sort
from repro.io_sim.pager import DiskSimulator

from . import extsort_oracle
from .helpers import PAPER_MODEL

pytestmark = pytest.mark.writebatch

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max


# -- (a) the block sort makes the record sort's disk calls -------------------------------


class RecordingDisk(DiskSimulator):
    """A disk that keeps its call trace: ``[(op, pid), ...]``."""

    def __init__(self) -> None:
        super().__init__()
        self.trace = []

    def allocate(self, capacity):
        page = super().allocate(capacity)
        self.trace.append(("allocate", page.pid))
        return page

    def read(self, pid):
        self.trace.append(("read", pid))
        return super().read(pid)

    def write(self, page):
        self.trace.append(("write", page.pid))
        super().write(page)

    def free(self, pid):
        self.trace.append(("free", pid))
        super().free(pid)


def assert_same_sort(records, capacity, memory, key=None, oracle_records=None):
    """``external_sort`` ≡ the record-at-a-time oracle: call trace,
    counters (buffer hits included), the final run's pages and every
    record on them, ``-0.0`` told from ``0.0``."""
    disk, oracle_disk = RecordingDisk(), RecordingDisk()
    run = external_sort(disk, records, capacity, memory, key=key)
    oracle_run = extsort_oracle.external_sort(
        oracle_disk,
        records if oracle_records is None else oracle_records,
        capacity,
        memory,
        key=key if oracle_records is None else itemgetter(0),
    )
    assert disk.trace == oracle_disk.trace
    assert repr(disk.stats) == repr(oracle_disk.stats)
    assert disk.pages_allocated == oracle_disk.pages_allocated
    assert run.page_pids == oracle_run.page_pids
    assert run.length == oracle_run.length == len(records)
    assert list(disk.buffer) == list(oracle_disk.buffer)
    for pid in run.page_pids:
        assert repr(list(disk.peek(pid).items)) == repr(
            list(oracle_disk.peek(pid).items)
        )
    assert disk.pages_in_use == len(run.page_pids)
    return run


@st.composite
def sort_shapes(draw):
    """``(page_capacity, memory_pages, n)`` with ``n`` up to six chunks,
    half the draws on or beside a chunk boundary."""
    capacity = draw(st.integers(min_value=2, max_value=16))
    memory = draw(st.integers(min_value=2, max_value=6))
    chunk = capacity * memory
    n = draw(
        st.one_of(
            st.integers(min_value=0, max_value=6 * chunk),
            st.builds(
                lambda k, d: k * chunk + d,
                st.integers(min_value=1, max_value=6),
                st.sampled_from((-1, 0, 1)),
            ),
        )
    )
    return capacity, memory, n


def observation_block(rng, n):
    """Records that tie on ``(band, b)`` across oids, with negative
    oids and ``-0.0`` beside ``0.0``; keys unique (oids are)."""
    oids = rng.sample(range(-n, n + 1), n)
    return ObservationRecords(
        (
            (
                rng.randrange(3),
                rng.choice((-3.5, -0.0, 0.0, 0.25, 7.0, 1e9)),
                oid,
            ),
            rng.uniform(V_MIN, V_MAX),
        )
        for oid in oids
    )


@settings(max_examples=60, deadline=None)
@given(shape=sort_shapes(), seed=st.integers(min_value=0, max_value=10**6))
def test_property_block_sort_makes_the_record_sorts_disk_calls(shape, seed):
    capacity, memory, n = shape
    rng = random.Random(seed)
    ints = [rng.randint(-50, 50) for _ in range(n)]
    run = assert_same_sort(ints, capacity, memory)
    assert list(run.scan()) == sorted(ints)
    # Many ties under the key: the merge must keep run order among them.
    pairs = [(value, position) for position, value in enumerate(ints)]
    assert_same_sort(pairs, capacity, memory, key=lambda r: r[0] % 7)
    block = observation_block(rng, n)
    run = assert_same_sort(
        block, capacity, memory, oracle_records=list(block)
    )
    assert all(
        type(run.disk.peek(pid).items) is ObservationRecords
        for pid in run.page_pids
    )


@pytest.mark.parametrize("capacity, memory", [(2, 2), (8, 4), (5, 3)])
def test_block_sort_at_every_chunk_boundary(capacity, memory):
    chunk = capacity * memory
    rng = random.Random(capacity * 31 + memory)
    for k in range(1, 7):
        for n in (k * chunk - 1, k * chunk, k * chunk + 1):
            ints = [rng.randint(-9, 9) for _ in range(n)]
            assert_same_sort(ints, capacity, memory)
            block = observation_block(rng, n)
            assert_same_sort(
                block, capacity, memory, oracle_records=list(block)
            )


def test_no_phantom_run_at_exact_multiples():
    """A record count that is a multiple of the chunk used to add an
    empty trailing run to the merge plan: 16 writes / 3 reads at n = 32
    (one run "merged" with nothing), 36 pages at n = 96 (a fourth run,
    one over the fan-in, forcing a second pass)."""
    costs = {}
    for n in (31, 32, 96):
        disk = DiskSimulator()
        run = external_sort(
            disk, list(range(n, 0, -1)), page_capacity=8, memory_pages=4
        )
        costs[n] = (disk.stats.writes, disk.stats.reads, disk.pages_allocated)
        assert list(run.scan()) == list(range(1, n + 1))
    assert costs[31] == (8, 0, 4)
    assert costs[32] == (8, 0, 4)
    assert costs[96] == (48, 12, 24)


def test_sort_accepts_any_iterable_and_an_empty_block():
    run = external_sort(DiskSimulator(), (n * n % 11 for n in range(40)), 4, 2)
    assert list(run.scan()) == sorted(n * n % 11 for n in range(40))
    for empty in ([], ObservationRecords()):
        disk = DiskSimulator()
        run = external_sort(disk, empty, 4, 2)
        assert (run.page_pids, run.length, disk.pages_allocated) == ([], 0, 0)
        assert len(run.read_block()) == 0


# -- (b) bulk_build builds the parent's forest ---------------------------------------------


def fleet(n, seed, signs=(1, -1)):
    """``n`` objects with scattered (negative too) oids, velocities of
    the given signs and random reference times."""
    rng = random.Random(seed)
    oids = rng.sample(range(-4 * n, 4 * n + 1), n)
    return [
        MobileObject1D(
            oid,
            LinearMotion1D(
                rng.uniform(0.0, Y_MAX),
                rng.choice(signs) * rng.uniform(V_MIN, V_MAX),
                rng.uniform(-50.0, 100.0),
            ),
        )
        for oid in oids
    ]


def forest_digest(index):
    """sha256 over everything a bulk build leaves behind: per disk the
    counters (buffer hits too), allocation count, buffered pids and
    every page (pid, capacity, header, container type, records — a
    packed leaf by its column bytes); per tree root, height and size;
    the catalog in its insertion order."""
    digest = hashlib.sha256()

    def feed(*parts):
        digest.update(repr(parts).encode())

    feed(type(index).__name__, len(index))
    for disk in index.disks:
        feed(repr(disk.stats), disk.pages_allocated, list(disk.buffer))
        for pid in sorted(disk._pages):
            page = disk.peek(pid)
            feed(pid, page.capacity, sorted(page.meta.items()),
                 type(page.items).__name__)
            if isinstance(page.items, ObservationRecords):
                for column in page.items.columns:
                    feed(column.typecode)
                    digest.update(column.tobytes())
            else:
                feed(page.items)
    for key, tree in index._trees.items():
        feed(key, tree.root_pid, tree.height, len(tree))
    for oid, motion in index._catalog.items():
        feed(oid, motion.y0, motion.v, motion.t0)
    return digest.hexdigest()[:16]


#: ``forest_digest`` of ``cls.bulk_build(PAPER_MODEL, fleet(n, n + 7,
#: signs), c=c, fill=fill)``, recorded at commit 09136dd — the last
#: one whose ``external_sort`` pushed a record at a time through
#: ``Page.append`` and merged with a heap.  Sizes sit on and beside the
#: layout's chunk (8 pages x 341 records = 2,728); the one-sign fleets
#: put a whole population in one tree.  No tree here holds an exact
#: multiple of the chunk: those are the counts the phantom-run fix
#: moved (``test_no_phantom_run_at_exact_multiples``).
PARENT_DIGESTS = {
    ('served', 0, (1, -1), 1, 0.8): "d30f3e91154f08b9",
    ('served', 0, (1, -1), 1, 1.0): "d30f3e91154f08b9",
    ('served', 0, (1, -1), 4, 0.8): "2ceb57847843b6f0",
    ('served', 0, (1, -1), 4, 1.0): "2ceb57847843b6f0",
    ('served', 1, (1, -1), 1, 0.8): "d384b2a5b3f53a65",
    ('served', 1, (1, -1), 1, 1.0): "d384b2a5b3f53a65",
    ('served', 1, (1, -1), 4, 0.8): "4999d60ccaff08e9",
    ('served', 1, (1, -1), 4, 1.0): "4999d60ccaff08e9",
    ('served', 5, (1, -1), 1, 0.8): "5d4c2666493b4e73",
    ('served', 5, (1, -1), 1, 1.0): "5d4c2666493b4e73",
    ('served', 5, (1, -1), 4, 0.8): "5368a9e7b6142d11",
    ('served', 5, (1, -1), 4, 1.0): "5368a9e7b6142d11",
    ('served', 341, (1, -1), 1, 0.8): "4719cd66901d1700",
    ('served', 341, (1, -1), 1, 1.0): "4719cd66901d1700",
    ('served', 341, (1, -1), 4, 0.8): "3b431327edd1b0b1",
    ('served', 341, (1, -1), 4, 1.0): "3b431327edd1b0b1",
    ('served', 2728, (1, -1), 1, 0.8): "d68273d7cdca7327",
    ('served', 2728, (1, -1), 1, 1.0): "c7a185ecccd9c3ef",
    ('served', 2728, (1, -1), 4, 0.8): "46b6bd507af7ca6f",
    ('served', 2728, (1, -1), 4, 1.0): "d93f551c3cabb4fc",
    ('served', 2729, (1, -1), 1, 0.8): "8dde1175e1e3cc13",
    ('served', 2729, (1, -1), 1, 1.0): "7520c315f4654735",
    ('served', 2729, (1, -1), 4, 0.8): "36ed4ae75b27451c",
    ('served', 2729, (1, -1), 4, 1.0): "d1544fec45684653",
    ('served', 10912, (1, -1), 1, 0.8): "30cb77c275e6428f",
    ('served', 10912, (1, -1), 1, 1.0): "7d046c2b67361d89",
    ('served', 10912, (1, -1), 4, 0.8): "854d80cd90ddbc9f",
    ('served', 10912, (1, -1), 4, 1.0): "85a86fec06761591",
    ('served', 25000, (1, -1), 1, 0.8): "398bf19e8ffc7b7e",
    ('served', 25000, (1, -1), 1, 1.0): "61fc6b047dfaed04",
    ('served', 25000, (1, -1), 4, 0.8): "0b89e7b514892f67",
    ('served', 25000, (1, -1), 4, 1.0): "8c1e6c219763479f",
    ('served', 40000, (1, -1), 1, 0.8): "3c3fce0d76afcff6",
    ('served', 40000, (1, -1), 1, 1.0): "d2685fad030c5eb3",
    ('served', 40000, (1, -1), 4, 0.8): "543e8a62294a84a2",
    ('served', 40000, (1, -1), 4, 1.0): "cc60e0a8da1960d7",
    ('served', 2727, (1,), 4, 0.8): "1ae50b92a328ca3a",
    ('served', 2727, (-1,), 1, 1.0): "ea389f929b744055",
    ('served', 2729, (1,), 4, 0.8): "31eea7ca393b923b",
    ('served', 2729, (-1,), 1, 1.0): "f671369cf0f915ab",
    ('served', 5457, (1,), 4, 0.8): "8cac22e63b6f39c3",
    ('served', 5457, (-1,), 1, 1.0): "5b25383f5069f402",
    ('paper', 5, (1, -1), 4, 0.8): "ffe8a61d2e444e81",
    ('paper', 2729, (1, -1), 4, 0.8): "0808a67c0fa5a1a2",
    ('paper', 25000, (1, -1), 4, 0.8): "273bb41102896186",
    ('paper', 10912, (1, -1), 1, 1.0): "c67ca7a6ebe019ad",
}


@pytest.mark.parametrize(
    "name, n, signs, c, fill", list(PARENT_DIGESTS)
)
def test_bulk_build_is_the_parents_forest(name, n, signs, c, fill):
    cls = {"served": HoughYForestIndex, "paper": PaperForestIndex}[name]
    index = cls.bulk_build(
        PAPER_MODEL, fleet(n, n + 7, signs), c=c, fill=fill
    )
    assert forest_digest(index) == PARENT_DIGESTS[(name, n, signs, c, fill)]
    for tree in index._trees.values():
        tree.check_invariants()


# -- (c) the mask refuses what the scalar loop refuses, with its words ---------------------


def refusal_of(check, *args):
    with pytest.raises(InvalidMotionError) as refused:
        check(*args)
    return str(refused.value)


def obj(oid, y0=500.0, v=1.0, t0=0.0):
    return MobileObject1D(oid, LinearMotion1D(y0, v, t0))


#: One inadmissible object each, beside the message the scalar
#: admission test (``check_oid``, then ``MotionModel.validate``) gives.
BAD_OBJECTS = [
    obj(-1, v=float("nan")),
    obj(-1, t0=float("inf")),
    obj(-1, y0=Y_MAX + 1.0),
    obj(-1, y0=float("nan")),
    obj(-1, v=-2.0 * V_MAX),
    obj(-1, v=0.5 * V_MIN),
    obj(2**70),
    obj(np.int64(3)),
    obj(3.0),
]


def expected_refusal(bad):
    if isinstance(bad.oid, int) and -(2**63) <= bad.oid < 2**63:
        return InvalidMotionError, refusal_of(PAPER_MODEL.validate, bad.motion)
    return InvalidMotionError, refusal_of(check_oid, bad.oid)


def assert_refused(objects, kind, message):
    """``bulk_build`` raises ``kind`` saying ``message`` and has made no
    disk by then; an empty forest handed the same batch keeps its
    (empty) trees."""
    for cls in (HoughYForestIndex, PaperForestIndex):
        made = []

        class CountedDisk(DiskSimulator):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        original = hough_y_forest.DiskSimulator
        hough_y_forest.DiskSimulator = CountedDisk
        try:
            with pytest.raises(kind) as refused:
                cls.bulk_build(PAPER_MODEL, objects)
        finally:
            hough_y_forest.DiskSimulator = original
        assert str(refused.value) == message
        assert made == []
        forest = cls(PAPER_MODEL)
        disks, trees = forest.disks, dict(forest._trees)
        with pytest.raises(kind):
            forest.insert_batch(objects)
        assert len(forest) == 0 and forest._catalog == {}
        assert forest.disks == disks and forest._trees == trees
        assert all(len(tree) == 0 for tree in trees.values())


@pytest.mark.parametrize("bad", BAD_OBJECTS, ids=lambda bad: repr(bad)[15:60])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_bad_object_raises_the_scalar_exception(bad, where):
    good = fleet(40, 5)
    at = {"first": 0, "middle": 20, "last": 40}[where]
    assert_refused(good[:at] + [bad] + good[at:], *expected_refusal(bad))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_duplicate_oid_raises_at_its_second_appearance(where):
    good = fleet(40, 6)
    at = {"first": 1, "middle": 20, "last": 40}[where]
    twin = obj(good[0].oid)
    assert_refused(
        good[:at] + [twin] + good[at:],
        DuplicateObjectError,
        f"object {twin.oid} appears twice in the bulk input",
    )
    # ``True == 1``: one key to the catalog, so a duplicate here too.
    assert_refused(
        [obj(1), obj(True)], DuplicateObjectError,
        "object True appears twice in the bulk input",
    )


def test_two_bad_objects_raise_for_the_earlier_one():
    good = fleet(30, 7)
    nan_speed, big_oid = obj(-1, v=float("nan")), obj(2**70)
    twin = obj(good[3].oid)
    for first, second in (
        (nan_speed, big_oid), (big_oid, nan_speed),
        (twin, nan_speed), (big_oid, twin),
    ):
        objects = good[:10] + [first] + good[10:20] + [second] + good[20:]
        if first is twin:
            kind, message = (
                DuplicateObjectError,
                f"object {twin.oid} appears twice in the bulk input",
            )
        else:
            kind, message = expected_refusal(first)
        assert_refused(objects, kind, message)


def test_a_bool_oid_is_an_int_as_the_scalar_check_has_it():
    index = HoughYForestIndex.bulk_build(PAPER_MODEL, [obj(True), obj(2)])
    assert set(index._catalog) == {1, 2}
    assert index.query(hough_y_forest.MORQuery1D(0.0, Y_MAX, 0.0, 1.0)) == {1, 2}


# -- (d) the crash hook ------------------------------------------------------------------------


def test_crash_hook_fires_once_per_tree_in_tree_order(monkeypatch):
    objects = fleet(900, 8, signs=(1, 1, -1))  # twice as many forward
    forward = sum(o.motion.v > 0 for o in objects)
    events = []
    packed = ObservationTree.bulk_load.__func__

    def recording_load(cls, disk, records, *args, **kwargs):
        events.append(("packed", len(records)))
        return packed(cls, disk, records, *args, **kwargs)

    monkeypatch.setattr(
        ObservationTree, "bulk_load", classmethod(recording_load)
    )
    index = HoughYForestIndex.bulk_build(
        PAPER_MODEL, objects, c=3, crash_hook=events.append
    )
    sizes = [
        forward if sign == 1 else len(objects) - forward
        for sign, _ in index._tree_keys()
    ]
    assert forward != len(objects) - forward
    assert events == [
        event for size in sizes for event in (("packed", size), "bulk.mid_pack")
    ]
    assert list(index._trees) == list(index._tree_keys())


def test_a_crash_mid_pack_leaves_the_old_generation_answering():
    forest = HoughYForestIndex.bulk_build(PAPER_MODEL, fleet(400, 9))
    before = forest_digest(forest)
    calls = []

    def crash_on_third(point):
        calls.append(point)
        if len(calls) == 3:
            raise RuntimeError("crash")

    forest.crash_hook = crash_on_third
    moved = [
        MobileObject1D(o.oid, LinearMotion1D(Y_MAX - o.motion.y0, o.motion.v, 1.0))
        for o in fleet(400, 9)
    ]
    with pytest.raises(RuntimeError):
        forest.update_batch(moved)
    assert calls == ["bulk.mid_pack"] * 3
    assert forest_digest(forest) == before


# -- (e) a built leaf owns its arrays ----------------------------------------------------------


def test_every_built_leaf_can_be_resized():
    """No page of the sort or the pack keeps a numpy view of its
    columns alive (an exported ``array`` cannot grow), at one run and
    past a merge."""
    for n in (300, 7000):
        objects = fleet(n, 10)
        index = HoughYForestIndex.bulk_build(PAPER_MODEL, objects, c=2)
        for disk in index.disks:
            for pid in sorted(disk._pages):
                page = disk.peek(pid)
                if page.meta["kind"] == "leaf":
                    page.items.insert(0, page.items[0])
                    page.items.pop(0)
        # And through the verbs: a grouped run into every leaf.
        index.update_batch(
            [
                MobileObject1D(
                    o.oid, LinearMotion1D(o.motion.y0, o.motion.v, 3.0)
                )
                for o in objects[:: max(1, n // 200)]
            ]
        )
        twin = HoughYForestIndex.bulk_build(
            PAPER_MODEL,
            [MobileObject1D(oid, m) for oid, m in index._catalog.items()],
            c=2,
        )
        query = hough_y_forest.MORQuery1D(100.0, 400.0, 5.0, 40.0)
        assert index.query(query) == twin.query(query)
