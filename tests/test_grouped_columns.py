"""A grouped write is columns (DESIGN.md §5.4, "The columnar run").

``HoughYForestIndex._apply_grouped`` keys a whole group in one array
pass (``_placements``), orders every tree's ops with one ``np.lexsort``
a sign, and hands each tree its ops as columns
(``ObservationTree.apply_sorted_columns``), which splices a long
insert-only leaf run into the leaf's columns in one merge and leaves
every other run to the record loop ``BPlusTree._apply_leaf_run``.
Nothing of it may show on the paper's axis, so this file holds:

* the columnar run against the record loop (``apply_sorted``) — the
  disk call trace, ``IOStats``, pids, ``len``, height and leaf bytes,
  and on a duplicate insert or a missing delete the same exception and
  the same partly applied tree;
* the key helper against ``_placement`` + ``_band``, bit for bit;
* the columnar grouped write against the tuple-sorted one it replaced,
  forest for forest.
"""

import copy
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bptree import BPlusTree
from repro.bptree.tree import DELETE, INSERT, batch_order
from repro.core import LinearMotion1D, MobileObject1D, speed_bands
from repro.errors import (
    DuplicateObjectError,
    InvalidMotionError,
    ObjectNotFoundError,
)
from repro.indexes import HoughYForestIndex
from repro.indexes.hough_y_forest import ObservationTree
from repro.io_sim.pager import DiskSimulator

from .helpers import PAPER_MODEL, random_objects
from .test_forest_bands import CORNER_SPEEDS

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max

# -- the columnar run against the record loop -----------------------------------

#: Few ``b`` values, so keys tie on ``b`` across oids (one motion under
#: many oids) and ``-0.0`` meets ``0.0``.
B_POOL = (-2.5, -0.0, 0.0, 1.0, 1.5, 4.0)


def traced(disk):
    """Record every ``read`` / ``write`` / ``allocate`` / ``free`` of
    ``disk`` as ``(call, pid)``, in order."""
    trace = []

    def read(pid):
        trace.append(("read", pid))
        return type(disk).read(disk, pid)

    def write(page):
        trace.append(("write", page.pid))
        type(disk).write(disk, page)

    def allocate(capacity):
        page = type(disk).allocate(disk, capacity)
        trace.append(("allocate", page.pid))
        return page

    def free(pid):
        trace.append(("free", pid))
        type(disk).free(disk, pid)

    disk.read, disk.write, disk.allocate, disk.free = read, write, allocate, free
    return trace


def page_image(tree):
    """Every live page, uncounted: pid, kind, ``next`` and the leaf's
    column bytes (``-0.0`` and ``0.0`` differ here) or the routing
    entries."""
    disk = tree.disk
    image = []
    for pid in range(disk.pages_allocated):
        page = disk.peek(pid)
        if page is None:
            continue
        if page.meta["kind"] == "leaf":
            body = tuple(col.tobytes() for col in page.items.columns)
        else:
            body = repr(page.items)
        image.append((pid, page.meta["kind"], page.meta.get("next"), body))
    return image


def state(tree):
    disk = tree.disk
    return (
        page_image(tree),
        disk.stats.snapshot(),
        disk.pages_allocated,
        disk.pages_in_use,
        tree.root_pid,
        tree.height,
        len(tree),
    )


def as_columns(ops):
    band, b, oid = zip(*(key for key, _, _ in ops)) if ops else ((), (), ())
    return (
        np.array(band, dtype=np.int64),
        np.array(b, dtype=np.float64),
        np.array(oid, dtype=np.int64),
        np.array([kind for _, kind, _ in ops], dtype=np.int8),
        np.array(
            [0.0 if value is None else value for _, _, value in ops],
            dtype=np.float64,
        ),
    )


def outcome(apply):
    try:
        apply()
    except (ValueError, ObjectNotFoundError) as exc:
        return type(exc), str(exc)
    return None


def run_both(start, ops, min_run):
    """``ops`` through the columnar run and through ``apply_sorted`` on
    two copies of ``start``; everything observable must agree."""
    loop, columnar = copy.deepcopy(start), copy.deepcopy(start)
    loop_trace, columnar_trace = traced(loop.disk), traced(columnar.disk)
    columns = as_columns(ops)
    loop_error = outcome(lambda: BPlusTree.apply_sorted(loop, ops))
    columnar_error = outcome(
        lambda: columnar.apply_sorted_columns(*columns, min_run=min_run)
    )
    assert columnar_error == loop_error
    assert columnar_trace == loop_trace
    assert state(columnar) == state(loop)
    if loop_error is None:
        columnar.check_invariants()
    return loop_error


@st.composite
def splice_scripts(draw):
    """A packed tree, the sorted ops of one grouped run and the splice
    threshold: long insert-only runs, mixed runs that delete a leaf's
    first key, underflowing runs, capacities down to 3 (the root grows
    levels at once), equal-``b`` ties, and at most one faulty op — an
    insert of a stored key or a delete of an absent one."""
    capacity = draw(st.integers(min_value=3, max_value=9))
    universe = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.one_of(
                    st.sampled_from(B_POOL),
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                ),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=90,
            unique=True,
        )
    )
    universe = list(dict.fromkeys(universe))  # 0.0 == -0.0: one key
    stored = draw(st.sets(st.sampled_from(universe)))
    picked = draw(st.sets(st.sampled_from(universe)))
    ops = [
        (key, DELETE, None) if key in stored else (key, INSERT, 1.0 + key[2])
        for key in picked
    ]
    fault = draw(st.sampled_from((None, "duplicate", "missing")))
    spare = [key for key in universe if key not in picked]
    if fault and spare:
        key = draw(st.sampled_from(spare))
        if fault == "duplicate" and key in stored:
            ops.append((key, INSERT, 99.0))
        elif fault == "missing" and key not in stored:
            ops.append((key, DELETE, None))
    ops.sort(key=batch_order)
    fill = draw(st.sampled_from((0.5, 0.75, 1.0)))
    min_run = draw(st.sampled_from((1, 2, 4, 8)))
    return capacity, sorted(stored), fill, ops, min_run


def pack(capacity, stored, fill):
    return ObservationTree.bulk_load(
        DiskSimulator(), [(key, 1.0 + key[2]) for key in stored],
        capacity, fill=fill,
    )


def keys_between(lo, hi, n, band=0, oid=0):
    """``n`` keys strictly between two ``b`` values."""
    step = (hi - lo) / (n + 1)
    return [(band, lo + step * (j + 1), oid + j) for j in range(n)]


STORED = [(0, float(b), oid) for b in range(0, 40, 4) for oid in (1, 5)]
LONG_RUN = [(key, INSERT, 0.5) for key in keys_between(8.0, 12.0, 12)]
# Deletes the first key of the second leaf, (0, 4.0, 1), then inserts
# below its new first key, (0, 4.0, 5): the loop re-descends there.
FIRST_KEY_THEN_BELOW = [
    ((0, 4.0, 1), DELETE, None),
    ((0, 4.0, 3), INSERT, 0.5),
    ((0, 4.5, 0), INSERT, 0.5),
]
UNDERFLOW_RUN = sorted(
    [(key, DELETE, None) for key in STORED[4:12]]
    + [(key, INSERT, 0.5) for key in keys_between(8.0, 12.0, 3)],
    key=batch_order,
)
# One motion under many oids: equal b, the oid decides the order.
TIES = [((1, 1.0, oid), INSERT, 0.7) for oid in range(30)]
DUPLICATE_MID_RUN = sorted(
    LONG_RUN + [((0, 12.0, 1), INSERT, 0.5)], key=batch_order
)
# Ends a long run with an insert of the next leaf's first key: the loop
# stops the run there and raises in the next leaf.
DUPLICATE_AT_SEPARATOR = [
    (key, INSERT, 0.5) for key in keys_between(12.0, 16.0, 12)
] + [((0, 16.0, 1), INSERT, 0.5)]
MISSING_MID_RUN = sorted(
    LONG_RUN + [((0, 10.0, 99), DELETE, None)], key=batch_order
)


@settings(max_examples=300, deadline=None)
@given(script=splice_scripts())
@example(script=(4, STORED, 1.0, LONG_RUN, 8))
@example(script=(4, STORED, 0.75, FIRST_KEY_THEN_BELOW, 1))
@example(script=(4, STORED, 1.0, UNDERFLOW_RUN, 2))
@example(script=(3, [(0, 0.0, 0)], 1.0, TIES, 1))
@example(script=(4, STORED, 1.0, DUPLICATE_MID_RUN, 4))
@example(script=(4, STORED, 1.0, DUPLICATE_AT_SEPARATOR, 4))
@example(script=(4, STORED, 1.0, MISSING_MID_RUN, 4))
def test_columnar_run_is_the_record_loop(script):
    capacity, stored, fill, ops, min_run = script
    run_both(pack(capacity, stored, fill), ops, min_run)


def reached(script):
    """What the columnar run of a script calls — splices, record-loop
    runs, underflow repairs, the exception — and how many levels the
    tree grows by."""
    capacity, stored, fill, ops, min_run = script
    calls = Counter()

    class Counting(ObservationTree):
        def _splice(self, *args):
            calls["splice"] += 1
            return super()._splice(*args)

        def _apply_leaf_run(self, *args):
            calls["loop"] += 1
            return super()._apply_leaf_run(*args)

        def _rebalance_after_shrink(self, *args):
            calls["underflow"] += 1
            return super()._rebalance_after_shrink(*args)

    tree = Counting.bulk_load(
        DiskSimulator(), [(key, 1.0 + key[2]) for key in stored],
        capacity, fill=fill,
    )
    height = tree.height
    error = outcome(
        lambda: tree.apply_sorted_columns(*as_columns(ops), min_run=min_run)
    )
    if error:
        calls[error[0].__name__] += 1
    calls["grown"] = tree.height - height
    return +calls  # without the zero counts


def test_pinned_cases_reach_what_they_name():
    """The pinned examples do what their names say."""
    assert reached((4, STORED, 1.0, LONG_RUN, 8)) == {"splice": 1}
    # The delete's run stops at the insert below the new first key;
    # each insert after it is a run of its own.
    assert reached((4, STORED, 0.75, FIRST_KEY_THEN_BELOW, 1)) == {
        "loop": 1, "splice": 2,
    }
    assert reached((4, STORED, 1.0, UNDERFLOW_RUN, 2))["underflow"] >= 1
    assert reached((3, [(0, 0.0, 0)], 1.0, TIES, 1))["grown"] >= 2
    assert reached((4, STORED, 1.0, DUPLICATE_MID_RUN, 4)) == {
        "splice": 1, "loop": 1, "ValueError": 1,
    }
    assert reached((4, STORED, 1.0, DUPLICATE_AT_SEPARATOR, 4)) == {
        "splice": 1, "loop": 1, "ValueError": 1,
    }
    assert reached((4, STORED, 1.0, MISSING_MID_RUN, 4)) == {
        "loop": 1, "ObjectNotFoundError": 1,
    }


# -- one key helper ----------------------------------------------------------------

EDGE_SPEEDS = sorted(
    set(CORNER_SPEEDS)
    | {V_MIN, V_MAX}
    | {
        edge
        for ratio in (HoughYForestIndex.BAND_RATIO, 2.0)
        for edge in speed_bands(V_MIN, V_MAX, ratio)
    }
)


def motions_strategy():
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.lists(
        st.builds(
            LinearMotion1D,
            st.one_of(
                st.sampled_from((0.0, Y_MAX)),
                st.floats(min_value=0.0, max_value=Y_MAX, **finite),
            ),
            st.one_of(
                st.sampled_from(EDGE_SPEEDS),
                st.floats(min_value=V_MIN, max_value=V_MAX, **finite),
            ).flatmap(lambda speed: st.sampled_from((speed, -speed))),
            st.one_of(
                st.sampled_from((0.0, -0.0)),
                st.floats(min_value=-1e6, max_value=1e6, **finite),
            ),
        ),
        min_size=1,
        max_size=40,
    )


@settings(max_examples=200, deadline=None)
@given(
    motions=motions_strategy(),
    ratio=st.sampled_from((HoughYForestIndex.BAND_RATIO, 2.0, math.inf)),
    c=st.integers(min_value=1, max_value=6),
)
@example(
    motions=[
        LinearMotion1D(y0, sign * speed, t0)
        for y0 in (0.0, Y_MAX)
        for speed in EDGE_SPEEDS
        for sign in (1, -1)
        for t0 in (0.0, -0.0)
    ],
    ratio=HoughYForestIndex.BAND_RATIO,
    c=4,
)
def test_placements_are_the_scalar_keys_bit_for_bit(motions, ratio, c):
    forest = type("Banded", (HoughYForestIndex,), {"BAND_RATIO": ratio})(
        PAPER_MODEL, c=c
    )
    y0, v, t0 = (
        np.array([getattr(m, field) for m in motions], dtype=np.float64)
        for field in ("y0", "v", "t0")
    )
    forward, band, speed, b = forest._placements(y0, v, t0)
    assert b.shape == (c, len(motions))
    for j, motion in enumerate(motions):
        sign, scalar_speed, crossings = forest._placement(motion)
        assert (1 if forward[j] else -1) == sign
        assert band[j] == forest._band(scalar_speed)
        assert speed[j:j + 1].tobytes() == np.float64(scalar_speed).tobytes()
        assert b[:, j].tobytes() == np.array(crossings).tobytes()


# -- the columnar grouped write against the record one ---------------------------

#: The forest with every grouped write as columns, and with every one
#: record by record.
ColumnarForest = type(
    "ColumnarForest", (HoughYForestIndex,), {"COLUMNS_MIN_GROUP": 0}
)
RecordForest = type(
    "RecordForest", (HoughYForestIndex,), {"COLUMNS_MIN_GROUP": math.inf}
)


def forest_state(forest):
    return [
        (key, *state(tree)) for key, tree in sorted(forest._trees.items())
    ]


def twins(leaf_capacity):
    return (
        ColumnarForest(PAPER_MODEL, c=4, leaf_capacity=leaf_capacity),
        RecordForest(PAPER_MODEL, c=4, leaf_capacity=leaf_capacity),
    )


def moved(rng, objects, t0):
    return [
        MobileObject1D(
            obj.oid,
            LinearMotion1D(
                rng.uniform(0, Y_MAX),
                rng.choice((1, -1)) * rng.uniform(V_MIN, V_MAX),
                t0,
            ),
        )
        for obj in objects
    ]


@pytest.mark.parametrize("leaf_capacity", [None, 6])
@pytest.mark.parametrize("seed", [3, 11])
def test_columnar_grouped_write_is_the_record_one(seed, leaf_capacity):
    """A chunked load, updates, deletes and re-registrations: page for
    page, pid for pid and count for count the forest the record path
    builds."""
    rng = random.Random(seed)
    population = random_objects(rng, 3000)
    # One motion under many oids: equal keys but for the oid.
    twin = population[0].motion
    population[1:40] = [
        MobileObject1D(obj.oid, twin) for obj in population[1:40]
    ]
    steps = [([], population[lo:lo + 600]) for lo in range(0, 3000, 600)]
    for size in (1, 5, 40, 700):
        objects = moved(rng, rng.sample(population, size), 150.0)
        steps.append(([obj.oid for obj in objects], objects))
    gone = set(rng.sample([obj.oid for obj in population], 900))
    steps.append((sorted(gone), []))
    steps.append(([], [obj for obj in population if obj.oid in gone]))
    columnar, records = twins(leaf_capacity)
    for leaving, arriving in steps:
        columnar._apply_grouped(leaving, arriving)
        records._apply_grouped(leaving, arriving)
        assert forest_state(columnar) == forest_state(records)
    assert columnar.motion_snapshot() == records.motion_snapshot()


def refusals(population):
    """Groups the forest must refuse whole, in the scalar checks'
    order, after ``population`` is indexed."""
    rng = random.Random(5)
    fresh = moved(rng, population[:3], 20.0)
    slow = MobileObject1D(9000, LinearMotion1D(10.0, V_MIN / 2, 0.0))
    off = MobileObject1D(9001, LinearMotion1D(Y_MAX + 1, 1.0, 0.0))
    late = MobileObject1D(9002, LinearMotion1D(10.0, 1.0, math.inf))
    new = moved(rng, [MobileObject1D(9003 + i, None) for i in range(3)], 1.0)
    return [
        ([1, 1], [], DuplicateObjectError),  # deleted twice
        ([1, 123456], [], ObjectNotFoundError),  # not indexed
        ([], [new[0], new[0]], DuplicateObjectError),  # arrives twice
        ([], [new[1], population[7]], DuplicateObjectError),  # indexed
        ([0], [fresh[0], new[2], slow], InvalidMotionError),  # too slow
        ([], [new[2], off], InvalidMotionError),  # off the terrain
        ([], [late], InvalidMotionError),  # no finite reference time
        ([3, 4], [MobileObject1D(2**63, new[0].motion)], InvalidMotionError),
    ]


def test_refused_groups_raise_the_scalar_exception_and_touch_nothing():
    population = random_objects(random.Random(8), 400)
    columnar, records = twins(8)
    for forest in (columnar, records):
        forest._apply_grouped([], population)
    for leaving, arriving, refusal in refusals(population):
        messages = []
        for forest in (columnar, records):
            before = forest_state(forest)
            with pytest.raises(refusal) as caught:
                forest._apply_grouped(leaving, arriving)
            messages.append(str(caught.value))
            assert forest_state(forest) == before
        assert messages[0] == messages[1]
