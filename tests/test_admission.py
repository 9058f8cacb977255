"""Admission: what no ordered store can hold is refused before anything
is mutated.

A NaN or infinite motion field compares false with everything, so it
slipped through the speed and terrain tests and left a record no later
probe could find again; an oid outside int64 overflowed the column
mirror after the engine and the index had taken the write.  Both are
now rejected in ``MotionModel.check_admissible`` — the step every write
path runs first — as an ``InvalidMotionError`` that ``apply_batch``
reports per op.  The property below feeds streams of valid writes
salted with such rejects, scalar-wise and batched, and holds every
layer to a brute-force model.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MotionDatabase, ShardedMotionService
from repro.core import LinearMotion1D, MobileObject1D, MORQuery1D, brute_force_1d
from repro.errors import (
    InvalidMotionError,
    ObjectNotFoundError,
    ReproError,
)
from repro.indexes import HoughYForestIndex
from repro.service import FaultTolerantMotionService
from repro.vector.ops import (
    DeregisterOp,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

from .helpers import PAPER_MODEL
from .test_forest_bands import finite

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max

NAN, INF = float("nan"), float("inf")
#: oids of the valid stream: few (so reports and deregisters hit), both
#: signs, and the two ends of the int64 column.
GOOD_OIDS = (-(2**63), -7, -2, -1, 0, 1, 2, 7, 2**63 - 1)
BAD_OIDS = (2**63, 2**70, -(2**63) - 1, 1.0, "7", None)


@st.composite
def write_ops(draw):
    kind = draw(st.sampled_from((RegisterOp, RegisterOp, ReportOp, "gone")))
    oid = draw(st.sampled_from(GOOD_OIDS))
    if kind == "gone":
        return DeregisterOp(oid)
    y0 = draw(st.one_of(finite(0, Y_MAX), st.sampled_from((100.0, 200.0))))
    v = draw(
        st.one_of(
            finite(-V_MAX, V_MAX),  # slow store and forest, both signs
            st.sampled_from((0.0, V_MIN, -V_MIN, V_MAX, -V_MAX)),
        )
    )
    t0 = draw(finite(0, 50))
    salt = draw(st.integers(min_value=0, max_value=11))
    if salt == 0:
        t0 = draw(st.sampled_from((NAN, INF, -INF)))
    elif salt == 1:
        v = draw(st.sampled_from((NAN, INF, -INF, 2 * V_MAX)))
    elif salt == 2:
        y0 = draw(st.sampled_from((NAN, INF, -INF, -1.0, Y_MAX + 1)))
    elif salt == 3 and kind is RegisterOp:
        oid = draw(st.sampled_from(BAD_OIDS))
    return kind(oid, y0, v, t0)


def model_apply(model, op):
    """The brute-force model's verdict: whether ``op`` is applied."""
    if isinstance(op, DeregisterOp):
        return model.pop(op.oid, None) is not None
    if isinstance(op, RegisterOp) == (op.oid in model):
        return False
    if not (isinstance(op.oid, int) and -(2**63) <= op.oid < 2**63):
        return False
    if not all(map(math.isfinite, (op.y0, op.v, op.t0))):
        return False
    if abs(op.v) > V_MAX or not 0 <= op.y0 <= Y_MAX:
        return False
    model[op.oid] = LinearMotion1D(op.y0, op.v, op.t0)
    return True


def apply_scalar(target, op):
    try:
        if isinstance(op, RegisterOp):
            target.register(op.oid, op.y0, op.v, op.t0)
        elif isinstance(op, ReportOp):
            target.report(op.oid, op.y0, op.v, op.t0)
        else:
            target.deregister(op.oid)
    except ReproError as exc:
        return exc
    return None


def make_targets():
    return [
        MotionDatabase(Y_MAX, V_MIN, V_MAX, method="forest"),
        ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3),
        FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=3, replication_factor=2
        ),
    ]


def databases(target):
    return getattr(target, "_shards", [target])


def check_every_tree(target):
    for db in databases(target):
        hybrid = db._index
        assert len(hybrid) == len(db)
        for tree in hybrid._fast._trees.values():
            tree.check_invariants()
            assert len(tree) <= len(hybrid._fast)
        assert sum(map(len, hybrid._fast._trees.values())) == (
            hybrid._fast.c * len(hybrid._fast)
        )
        hybrid._slow._tree.check_invariants()
        assert len(hybrid._slow._tree) == len(hybrid._slow)


QUERIES = [
    MORQuery1D(100.0, 200.0, 0.0, 0.0),  # objects exactly on y1 and y2
    MORQuery1D(0.0, Y_MAX, 10.0, 60.0),
    MORQuery1D(100.0, 100.0, 25.0, 25.0),
    MORQuery1D(300.0, 700.0, 40.0, 45.0),
]


def assert_answers(target, model):
    population = [MobileObject1D(oid, m) for oid, m in model.items()]
    assert len(target) == len(model)
    batch = target.query_batch(
        [Within(q.y1, q.y2, q.t1, q.t2) for q in QUERIES]
        + [SnapshotAt(q.y1, q.y2, q.t1) for q in QUERIES]
    )
    for i, q in enumerate(QUERIES):
        expected = brute_force_1d(population, q)
        assert target.within(q.y1, q.y2, q.t1, q.t2) == expected
        assert batch[i] == expected
        instant = brute_force_1d(
            population, MORQuery1D(q.y1, q.y2, q.t1, q.t1)
        )
        assert target.snapshot_at(q.y1, q.y2, q.t1) == instant
        assert batch[len(QUERIES) + i] == instant


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(write_ops(), max_size=40))
# The rejects of the bug reports, each after a valid neighbour.
@example(
    stream=[
        RegisterOp(1, 500.0, 1.0, 0.0),
        RegisterOp(2, 500.0, 1.0, NAN),
        RegisterOp(2, 500.0, 1.0, INF),
        RegisterOp(2, 500.0, NAN, 0.0),
        RegisterOp(2**70, 20.0, 1.0, 0.0),
        ReportOp(1, 500.0, NAN, 1.0),
        ReportOp(1, 500.0, 0.1, NAN),
        DeregisterOp(2),
        RegisterOp(-5, 100.0, 0.0, 0.0),
        RegisterOp(5, 100.0, 0.0, 0.0),
    ]
)
def test_salted_streams_leave_every_layer_equal_to_the_model(stream):
    model = {}
    verdicts = [model_apply(model, op) for op in stream]
    for scalar, batched in zip(make_targets(), make_targets()):
        outcomes = [apply_scalar(scalar, op) for op in stream]
        batch_outcomes = batched.apply_batch(stream)
        assert [outcome is None for outcome in outcomes] == verdicts
        assert [type(o) for o in batch_outcomes] == [type(o) for o in outcomes]
        for op, outcome in zip(stream, outcomes):
            if outcome is not None:
                assert isinstance(
                    outcome, (InvalidMotionError, ObjectNotFoundError)
                ), (op, outcome)
        for target in (scalar, batched):
            assert_answers(target, model)
            check_every_tree(target)
        if hasattr(scalar, "close"):
            scalar.close()
            batched.close()


def test_the_forest_refuses_what_its_columns_cannot_hold():
    """Used without an engine in front, the forest still leaves no
    half-written record behind: the check runs before the first tree
    is touched."""
    forest = HoughYForestIndex(PAPER_MODEL, c=2, leaf_capacity=4)
    good = [
        MobileObject1D(oid, LinearMotion1D(10.0 * oid, 1.0, 0.0))
        for oid in range(1, 9)
    ]
    forest.insert_batch(good)
    fresh = MobileObject1D(99, LinearMotion1D(990.0, -1.0, 0.0))
    bad = [
        MobileObject1D(2**63, LinearMotion1D(5.0, 1.0, 0.0)),
        MobileObject1D(1.5, LinearMotion1D(5.0, 1.0, 0.0)),
        MobileObject1D(20, LinearMotion1D(5.0, 1.0, NAN)),
        MobileObject1D(20, LinearMotion1D(5.0, 1.0, -INF)),
    ]
    for obj in bad:
        with pytest.raises(InvalidMotionError):
            forest.insert(obj)
        with pytest.raises(InvalidMotionError):
            forest.insert_batch([fresh, obj])
        with pytest.raises(InvalidMotionError):
            HoughYForestIndex.bulk_build(PAPER_MODEL, good + [obj], c=2)
    assert len(forest) == len(good)
    for (sign, _), tree in forest._trees.items():
        tree.check_invariants()
        assert len(tree) == (len(good) if sign == 1 else 0)
    for oid in range(1, 9):
        forest.delete(oid)
    assert all(len(tree) == 0 for tree in forest._trees.values())


@pytest.mark.parametrize(
    "service_class", [ShardedMotionService, FaultTolerantMotionService]
)
@pytest.mark.parametrize("field", ["y0", "v", "t0"])
def test_a_non_numeric_field_leaves_no_ghost_in_the_catalog(
    service_class, field
):
    """A motion field that is not a real number (``"500"``) is refused
    before the write plan commits anything.  Batched, the refusal is
    contained per op and the valid neighbour is fully applied; scalar,
    the verb raises the same type.  (It used to escape as a bare
    ``TypeError`` mid-plan, leaving op 1 in the catalog but on no
    shard: listed, not locatable, and refused as a duplicate.)"""
    service = service_class(Y_MAX, V_MIN, V_MAX, shards=3)
    good = {"y0": 5.0, "v": 1.0, "t0": 0.0}
    bad = dict(good, **{field: "500"})
    outcomes = service.apply_batch([RegisterOp(1, **good), RegisterOp(2, **bad)])
    assert outcomes[0] is None
    assert isinstance(outcomes[1], InvalidMotionError)
    assert 1 in service and 2 not in service
    assert service.location_of(1, 0.0) == 5.0
    with pytest.raises(InvalidMotionError):
        service.register(3, **bad)
    with pytest.raises(InvalidMotionError):
        service.report(1, **bad)
    service.report(1, 6.0, 1.0, 1.0)
    service.register(2, **good)
    assert service.motion_snapshot() == {
        1: LinearMotion1D(6.0, 1.0, 1.0),
        2: LinearMotion1D(5.0, 1.0, 0.0),
    }
    service.close()
