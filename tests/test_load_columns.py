"""A load is columns: one admission mask, one route vector, rows down
to the forest.

The admission mask (``MotionModel.admit_mask``) is held to the scalar
check it stands for, row for row over the inputs that used to slip
through or blow up — NaN, infinities, signed zeros, subnormals, the
speed and terrain edges, ints past float64 and oids past int64, bools,
numpy scalars, fractions, strings and ``None`` — and the route vector
(``ShardRouter.route_many``) to the scalar route.  A 20,000-register
load makes no scalar admission call and builds one motion per op.  The
two refusals that escaped before — an int too large for float64, a
numeric string in a forest used on its own — are contained, and an
exception escaping a batch plan leaves the catalog as it was.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import MotionDatabase, ShardedMotionService
from repro.core import LinearMotion1D, MobileObject1D
from repro.core.model import MotionModel, motion_columns
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.indexes import HoughYForestIndex
from repro.service import (
    BandRouter,
    FaultTolerantMotionService,
    HashRouter,
    VelocityRouter,
)
from repro.vector.ops import RegisterOp

from .helpers import PAPER_MODEL

Y_MAX = PAPER_MODEL.terrain.y_max
V_MIN, V_MAX = PAPER_MODEL.v_min, PAPER_MODEL.v_max
HUGE = 10**400

EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
    V_MAX, -V_MAX, float(np.nextafter(V_MAX, 2.0)), Y_MAX,
    float(np.nextafter(Y_MAX, 2e3)), -1e-300,
)
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
FIELDS = st.one_of(
    FLOATS,
    st.integers(-5, 1005),
    st.builds(np.float64, FLOATS),
    st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 7)),
    st.sampled_from(
        (HUGE, -HUGE, Fraction(HUGE), True, False, np.int64(7), "500",
         "x", None)
    ),
)
OIDS = st.one_of(
    st.integers(-(2**63) - 1, 2**63),
    st.sampled_from(
        (-(2**63), 2**63 - 1, -(2**63) - 1, 2**63, HUGE, True, False,
         np.int64(3), 1.0, Fraction(3), "7", None)
    ),
)
ROW = st.tuples(OIDS, FIELDS, FIELDS, FIELDS)


def scalar_refusal(model, oid, y0, v, t0):
    try:
        model.check_admissible(LinearMotion1D(y0, v, t0), oid)
    except InvalidMotionError as exc:
        return exc
    return None


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(ROW, max_size=12))
@example(rows=[(1, 10.0, 1.0, HUGE), (2, "500", 1.0, 0.0),
               (2**63, 10.0, 1.0, 0.0), (-(2**63), Y_MAX, -V_MAX, -0.0)])
def test_the_admission_mask_is_the_scalar_check(rows):
    columns = [list(column) for column in zip(*rows)] or [[]] * 4
    mask = PAPER_MODEL.admit_mask(*columns).tolist()
    assert mask == [scalar_refusal(PAPER_MODEL, *row) is None for row in rows]
    # Converted once, the typed columns admit the same rows.
    typed = motion_columns(*columns)
    assert PAPER_MODEL.admit_mask(*typed).tolist() == mask


def outcome_of(call):
    try:
        call()
    except (InvalidMotionError, ObjectNotFoundError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, max_size=10))
def test_a_refused_row_is_named_alike_in_a_batch_and_alone(rows):
    """Batched, every refused op's outcome is the exception the scalar
    verb raises for it, type and message."""
    ops = [RegisterOp(*row) for row in rows]
    for make in (
        lambda: MotionDatabase(Y_MAX, V_MIN, V_MAX),
        lambda: ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=3),
    ):
        batched, scalar = make(), make()
        got = [
            None if outcome is None else (type(outcome), str(outcome))
            for outcome in batched.apply_batch(ops)
        ]
        want = [outcome_of(lambda: scalar.register(*row)) for row in rows]
        assert got == want


@settings(max_examples=100, deadline=None)
@given(
    oids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
    shards=st.integers(1, 9),
)
@example(oids=[-(2**63), -1, 0, 1, 2**63 - 1, 2**32, -(2**32) - 7], shards=7)
def test_the_hash_route_vector_is_the_scalar_route(oids, shards):
    router = HashRouter(shards)
    motion = LinearMotion1D(0.0, 1.0, 0.0)
    got = router.route_many(np.array(oids, dtype=np.int64), np.ones(len(oids)))
    assert got.tolist() == [router.route(oid, motion) for oid in oids]


def band_speeds(router):
    """Every interior edge, the floats on either side of it and the
    clamped extremes, both signs."""
    speeds = [0.0, -0.0, V_MAX, 2 * V_MAX, math.inf]
    for edge in router.band_edges():
        speeds += [edge, float(np.nextafter(edge, 0.0)),
                   float(np.nextafter(edge, 9.0))]
    return speeds + [-s for s in speeds]


@settings(max_examples=60, deadline=None)
@given(
    shards=st.integers(1, 6),
    cut=st.lists(st.floats(0.01, 0.99), min_size=5, max_size=5, unique=True),
    extra=st.lists(st.floats(-3.0, 3.0), max_size=20),
)
def test_the_band_route_vector_is_the_scalar_route(shards, cut, extra):
    for router in (VelocityRouter(shards, V_MAX), BandRouter(shards, V_MAX)):
        for bands in (None, sorted(cut)[: shards - 1]):
            if bands is not None:
                router.set_bands([V_MAX * f for f in bands], router.epoch + 1)
            speeds = band_speeds(router) + extra
            got = router.route_many(
                np.zeros(len(speeds), dtype=np.int64),
                np.array(speeds, dtype=np.float64),
            )
            assert got.tolist() == [
                router.route(0, LinearMotion1D(0.0, v, 0.0)) for v in speeds
            ]


def test_a_load_admits_each_op_once(monkeypatch):
    """A 20,000-register load into 4 hash shards: no scalar admission
    call (three per op once), no scalar bulk refusal, and no motion
    object at all — the plan builds none, and the listeners get the
    batch's rows.  Every op is a plain row, so the plan walks none
    through the per-op ``_plan_write`` and the catalog commits none
    through the per-op ``_commit_write``."""
    n = 20_000
    rng = np.random.default_rng(5)
    speed = rng.choice((-1.0, 1.0), n) * rng.uniform(V_MIN, V_MAX, n)
    ops = [
        RegisterOp(oid, y0, v, 0.0)
        for oid, y0, v in zip(
            range(n), rng.uniform(0, Y_MAX, n).tolist(), speed.tolist()
        )
    ]
    calls = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(MotionModel, "check_admissible")
    spy(HoughYForestIndex, "_raise_first_rejection")
    spy(LinearMotion1D, "__init__")
    spy(ShardedMotionService, "_plan_write")
    spy(ShardedMotionService, "_commit_write")
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=4)
    assert not any(service.apply_batch(ops))
    monkeypatch.undo()
    assert calls["check_admissible"] == 0
    assert calls["_raise_first_rejection"] == 0
    assert calls["__init__"] == 0
    assert calls["_plan_write"] == 0
    assert calls["_commit_write"] == 0
    assert len(service) == n


@pytest.mark.parametrize("field", ["y0", "v", "t0"])
def test_the_database_refuses_an_int_beyond_float64(field):
    good = {"y0": 10.0, "v": 1.0, "t0": 0.0}
    bad = dict(good, **{field: HUGE})
    db = MotionDatabase(Y_MAX, V_MIN, V_MAX)
    outcomes = db.apply_batch([RegisterOp(1, **good), RegisterOp(2, **bad)])
    assert outcomes[0] is None
    assert isinstance(outcomes[1], InvalidMotionError)
    with pytest.raises(InvalidMotionError):
        db.register(3, **bad)
    with pytest.raises(InvalidMotionError):
        db.report(1, **bad)
    assert db.within(0.0, Y_MAX, 0.0, 1.0) == {1}


@pytest.mark.parametrize(
    "make",
    [
        lambda: ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2),
        lambda: FaultTolerantMotionService(
            Y_MAX, V_MIN, V_MAX, shards=2, replication_factor=2
        ),
    ],
    ids=["sharded", "replicated"],
)
@pytest.mark.parametrize("field", ["y0", "v", "t0"])
def test_an_int_beyond_float64_leaves_no_ghost_in_the_catalog(make, field):
    """The refusal is contained per op: the valid neighbour is applied
    and locatable, the refused op registers nothing.  (A huge ``t0``
    used to escape as a bare ``OverflowError`` after op 1 was in the
    catalog but on no shard: listed, refused as a duplicate, impossible
    to deregister.)"""
    good = {"y0": 10.0, "v": 1.0, "t0": 0.0}
    bad = dict(good, **{field: HUGE})
    service = make()
    outcomes = service.apply_batch(
        [RegisterOp(1, **good), RegisterOp(2, **bad)]
    )
    assert outcomes[0] is None
    assert isinstance(outcomes[1], InvalidMotionError)
    assert service.within(0.0, Y_MAX, 0.0, 1.0) == {1}
    assert 2 not in service
    with pytest.raises(InvalidMotionError):
        service.register(3, **bad)
    service.deregister(1)
    assert len(service) == 0
    service.close()


def test_an_exception_escaping_the_plan_leaves_the_catalog_as_it_was(
    monkeypatch,
):
    """Nothing is committed to the catalog until the whole batch is
    planned: an exception no outcome contains leaves no entry for an op
    no shard applied."""
    service = ShardedMotionService(Y_MAX, V_MIN, V_MAX, shards=2)
    service.register(5, 50.0, 1.0, 0.0)
    planned = []
    plan_write = service._plan_write

    def failing_plan(*args):
        planned.append(args[0])
        if len(planned) == 2:
            raise RuntimeError("plan failed")
        return plan_write(*args)

    monkeypatch.setattr(service, "_plan_write", failing_plan)
    with pytest.raises(RuntimeError):
        service.apply_batch(
            [RegisterOp(1, 10.0, 1.0, 0.0), RegisterOp(2, 20.0, 1.0, 0.0)]
        )
    monkeypatch.undo()
    assert len(service) == 1 and 1 not in service and 2 not in service
    service.register(1, 10.0, 1.0, 0.0)
    assert service.within(0.0, Y_MAX, 0.0, 1.0) == {1, 5}


def test_a_forest_used_alone_refuses_a_numeric_string():
    """``"500"`` converts to a float64 column without complaint; the
    forest's bulk build, its grouped insert and its scalar insert all
    refuse it as ``InvalidMotionError`` (the bulk build used to store it,
    and its ``delete`` then raised ``TypeError``)."""
    objs = [
        MobileObject1D(1, LinearMotion1D("500", 1.0, 0.0)),
        MobileObject1D(2, LinearMotion1D(20.0, 1.0, 0.0)),
    ]
    with pytest.raises(InvalidMotionError, match="real numbers"):
        HoughYForestIndex.bulk_build(PAPER_MODEL, objs)
    forest = HoughYForestIndex(PAPER_MODEL)
    with pytest.raises(InvalidMotionError, match="real numbers"):
        forest.insert_batch(objs)
    with pytest.raises(InvalidMotionError, match="real numbers"):
        forest.insert(objs[0])
    assert len(forest) == 0
    forest.insert_batch(objs[1:])
    forest.delete(2)
    assert len(forest) == 0
