"""One object table, one property: every write path against one model.

A shard keeps each object once, as a row of its object table
(:class:`~repro.vector.columns.MotionColumns`): the engine answers
membership, ``len`` and ``motion_of`` from it, the served forest reads
the motions it deletes and rebuilds from it, and the hybrid derives
which store holds an object instead of remembering it.  This property
drives :class:`~repro.engine.MotionDatabase`,
:class:`~repro.service.ShardedMotionService` and
:class:`~repro.service.FaultTolerantMotionService` (``r = 2``), the two
services hash- and velocity-routed, with random scalar and batched
writes — refusals, repeated oids in one batch, register → report →
deregister of one oid in one batch, speeds on both sides of ``v_min``
(fast ↔ slow crossings, which move an object between velocity-routed
shards), reference times in order per object but lagging across
objects, as real clients send them, history on and off, fields given as
``float``, ``int`` or ``numpy.float64`` — and after every step
holds the system to a ``{oid: (y0, v, t0)}`` model: ``len``, ``in``,
motions bit for bit, ``objects()``, the table rows, scalar and batch
answers, and the invariants of every tree — and a history database's
``query_past`` to a log of the versions it closed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import LinearMotion1D, MORQuery1D, MobileObject1D, brute_force_1d
from repro.engine import MotionDatabase
from repro.errors import InvalidMotionError, ObjectNotFoundError
from repro.extensions import brute_force_knn
from repro.indexes import HoughYForestIndex
from repro.service import FaultTolerantMotionService, ShardedMotionService
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

from .helpers import same_pages

Y_MAX, V_MIN, V_MAX = 1000.0, 0.16, 1.66
OIDS = 6

#: Speeds around both edges of the moving band: stationary, slow, the
#: band's own edges, fast and over-speed (refused).
SPEEDS = (0.0, 0.05, math.nextafter(V_MIN, 0.0), V_MIN, 0.5, 1.0, V_MAX, 2.0)


def build(system, keep_history):
    """``system``: ``"database"``, or ``"sharded"`` / ``"replicated"``
    with an optional ``"-velocity"`` router suffix (default: hash)."""
    if system == "database":
        return MotionDatabase(Y_MAX, V_MIN, V_MAX, keep_history=keep_history)
    kind, _, router = system.partition("-")
    kwargs = {"shards": 3, "keep_history": keep_history,
              "router": router or "hash"}
    if kind == "sharded":
        return ShardedMotionService(Y_MAX, V_MIN, V_MAX, **kwargs)
    return FaultTolerantMotionService(
        Y_MAX, V_MIN, V_MAX, replication_factor=2, **kwargs
    )


@st.composite
def writes(draw):
    """``(kind, oid, y0, v, cast, lag)``: the motion still to be given
    its reference time, the type its fields are handed over as, and how
    far behind the shared clock the client reports (never behind the
    object's own last report)."""
    kind = draw(st.sampled_from(("register", "report", "deregister")))
    oid = draw(st.integers(0, OIDS - 1))
    y0 = draw(
        st.one_of(
            st.floats(0.0, Y_MAX),
            st.sampled_from((0.0, Y_MAX, -1.0, Y_MAX + 1.0)),
        )
    )
    speed = draw(st.one_of(st.sampled_from(SPEEDS), st.floats(0.0, 1.7)))
    v = speed * draw(st.sampled_from((1.0, -1.0)))
    cast = draw(st.sampled_from(("float", "int", "float64")))
    lag = draw(st.integers(0, 6))
    return kind, oid, y0, v, cast, lag


#: One step: ``(batched, writes)``.
steps = st.lists(
    st.tuples(st.booleans(), st.lists(writes(), min_size=1, max_size=8)),
    min_size=1,
    max_size=8,
)


def as_op(write, t0):
    kind, oid, y0, v, cast, _ = write
    if kind == "deregister":
        return DeregisterOp(oid)
    convert = {"float": float, "int": int, "float64": np.float64}[cast]
    fields = (convert(y0), convert(v), convert(t0))
    return (RegisterOp if kind == "register" else ReportOp)(oid, *fields)


def expect(model, op, log=None):
    """The refusal the scalar verb gives ``op`` (``None``: applied, and
    ``model`` updated, and ``log`` when given)."""
    registered = op.oid in model
    if isinstance(op, RegisterOp) and registered:
        return InvalidMotionError
    if not isinstance(op, RegisterOp) and not registered:
        return ObjectNotFoundError
    if isinstance(op, DeregisterOp):
        if log is not None:
            log.close(op.oid, model[op.oid], log.clock)
        del model[op.oid]
        return None
    if not (abs(op.v) <= V_MAX and 0.0 <= op.y0 <= Y_MAX):
        return InvalidMotionError
    if log is not None:
        if registered:
            log.close(op.oid, model[op.oid], float(op.t0))
        log.clock = max(log.clock, float(op.t0))
    model[op.oid] = (op.y0, op.v, op.t0)
    return None


class VersionLog:
    """The §7 archive's model beside ``{oid: (y0, v, t0)}``: the closed
    versions ``(oid, y0, v, t_from, t_to)`` and the clock a deregister
    closes at, the largest ``t0`` of the writes applied so far.  A
    report closes the old version at its own ``t0``; a version closed
    before it began is dropped."""

    def __init__(self):
        self.closed, self.clock = [], 0.0

    def close(self, oid, motion, t_to):
        y0, v, t_from = map(float, motion)
        if t_to >= t_from:
            self.closed.append((oid, y0, v, t_from, t_to))

    def past(self, model, y1, y2, t1, t2):
        """Who was inside ``[y1, y2]`` at some instant of ``[t1, t2]``
        clipped to a version's validity (an open one's ends at ``t2``)."""
        found = set()
        for oid, y0, v, t_from, t_to in self.closed + [
            (oid, *map(float, motion), t2) for oid, motion in model.items()
        ]:
            t_lo, t_hi = max(t1, t_from), min(t2, t_to)
            if t_lo > t_hi:
                continue
            motion = LinearMotion1D(y0, v, t_from)
            a, b = motion.position(t_lo), motion.position(t_hi)
            if min(a, b) <= y2 and max(a, b) >= y1:
                found.add(oid)
        return found


def past_windows(clock):
    """Three past windows, reaching back past the lagging ``t0``s."""
    return [
        (0.0, Y_MAX / 2, clock - 7.0, clock - 1.0),
        (250.0, 750.0, clock - 3.0, clock - 3.0),
        (0.0, Y_MAX, clock - 12.0, clock + 5.0),
    ]


def scalar_write(system, op):
    try:
        if isinstance(op, RegisterOp):
            system.register(op.oid, op.y0, op.v, op.t0)
        elif isinstance(op, ReportOp):
            system.report(op.oid, op.y0, op.v, op.t0)
        else:
            system.deregister(op.oid)
    except (InvalidMotionError, ObjectNotFoundError) as exc:
        return exc
    return None


def bits(motion):
    """A motion's fields as their float64 bit patterns."""
    return tuple(float(x).hex() for x in (motion.y0, motion.v, motion.t0))


def databases(system):
    return [system] if isinstance(system, MotionDatabase) else system._shards


def trees(db):
    """Every tree of a shard: the archive, the forest's observation
    trees and the slow store's tree."""
    if db.history_enabled:
        yield db._archive._tree
    yield from db._index._fast._trees.values()
    yield db._index._slow._tree


def check_shard(db):
    """The shard's own object table against its index."""
    rows = dict(db.columns.items())
    assert len(db) == len(rows) == len(db.objects())
    assert {obj.oid: bits(obj.motion) for obj in db.objects()} == {
        oid: bits(motion) for oid, motion in rows.items()
    }
    for oid, motion in rows.items():
        assert oid in db
        got = db.motion_of(oid)
        assert all(type(x) is float for x in (got.y0, got.v, got.t0))
        assert bits(got) == bits(motion)
    model = db.model
    forest = db._index._fast
    per_tree = {key: 0 for key in forest._trees}
    for motion in rows.values():
        if model.is_moving(motion):
            for i in range(forest.c):
                per_tree[(1 if motion.v > 0 else -1, i)] += 1
    assert len(forest) == sum(map(model.is_moving, rows.values()))
    for key, tree in forest._trees.items():
        assert len(tree) == per_tree[key], key
    for tree in trees(db):
        tree.check_invariants()


def check(system, model, clock, oids=range(OIDS)):
    want = {oid: LinearMotion1D(*map(float, m)) for oid, m in model.items()}
    assert len(system) == len(want)
    for oid in oids:
        assert (oid in system) == (oid in want)
    assert {oid: bits(m) for oid, m in system.motion_snapshot().items()} == {
        oid: bits(m) for oid, m in want.items()
    }
    held = {}
    for db in databases(system):
        check_shard(db)
        for oid, motion in db.columns.items():
            assert bits(motion) == bits(want[oid])
            held[oid] = held.get(oid, 0) + 1
    copies = getattr(system, "replication_factor", 1)
    assert held == {oid: copies for oid in want}

    objects = [MobileObject1D(oid, m) for oid, m in want.items()]
    reads = [
        Within(0.0, Y_MAX / 2, clock, clock + 10.0),
        Within(300.0, 310.0, clock + 2.0, clock + 40.0),
        SnapshotAt(200.0, 700.0, clock + 3.0),
        Nearest(500.0, clock + 1.0, 3),
    ]
    answers = [
        system.within(0.0, Y_MAX / 2, clock, clock + 10.0),
        system.within(300.0, 310.0, clock + 2.0, clock + 40.0),
        system.snapshot_at(200.0, 700.0, clock + 3.0),
        system.nearest(500.0, clock + 1.0, 3),
    ]
    assert answers == [
        brute_force_1d(objects, MORQuery1D(0.0, Y_MAX / 2, clock, clock + 10.0)),
        brute_force_1d(
            objects, MORQuery1D(300.0, 310.0, clock + 2.0, clock + 40.0)
        ),
        brute_force_1d(
            objects, MORQuery1D(200.0, 700.0, clock + 3.0, clock + 3.0)
        ),
        brute_force_knn(objects, 500.0, clock + 1.0, 3),
    ]
    assert system.query_batch(reads) == answers


def run(system, model, plan):
    """Apply ``plan`` to ``system`` and ``model``, checking after every
    step.  A history database is also held to a :class:`VersionLog` on
    :func:`past_windows`.  The services' history legs are not: each
    shard closes a deregister at its own clock, which waits for ROADMAP
    item 6 (a deregister that carries its close time)."""
    log = None
    if isinstance(system, MotionDatabase) and system.history_enabled:
        log = VersionLog()
    clock, last_t0 = 0, {}
    for batched, batch in plan:
        ops = []
        for write in batch:
            clock += 1
            oid, lag = write[1], write[-1]
            t0 = last_t0[oid] = max(last_t0.get(oid, 0), clock - lag)
            ops.append(as_op(write, t0))
        wanted = [expect(model, op, log) for op in ops]
        if batched:
            got = system.apply_batch(ops)
        else:
            got = [scalar_write(system, op) for op in ops]
        assert [type(g) if g else None for g in got] == wanted
        check(system, model, clock)
        if log is not None:
            for window in past_windows(clock):
                assert system.query_past(*window) == log.past(model, *window)


#: A crossing fast → slow → fast, then register → report → deregister
#: of one oid inside one batch, beside an int and a float64 motion.
CROSSINGS = [
    (True, [("register", 0, 100.0, 1.0, "float", 0),
            ("register", 1, 200.0, -0.5, "float64", 0)]),
    (False, [("report", 0, 110.0, 0.05, "float", 0),
             ("report", 1, 210.0, 0.0, "int", 0)]),
    (True, [("report", 0, 120.0, -1.0, "int", 0),
            ("register", 2, 300.0, 1.0, "float", 0),
            ("report", 2, 310.0, 0.05, "float64", 0),
            ("deregister", 2, 0.0, 0.0, "float", 0),
            ("report", 1, 220.0, -V_MIN, "float64", 0)]),
]

#: Writes behind the clock their shard has seen: oid 4 registers at
#: t0 = 1 beside oids 1 and 2 (one hash shard, one velocity shard for
#: 1 and 4), oid 2 crosses into oid 1's velocity shard at t0 = 1, and
#: a scalar register and report lag as well.
LAGGING = [
    (False, [("register", 2, 300.0, 0.5, "float", 0),
             ("register", 1, 200.0, 1.0, "float", 0)]),
    (True, [("register", 4, 400.0, 1.0, "float", 2),
            ("report", 2, 310.0, 1.0, "float64", 3)]),
    (False, [("register", 5, 500.0, 1.66, "int", 4),
             ("report", 1, 250.0, 0.05, "float", 5)]),
]


#: A deregister in a batch closes at the clock the register before it
#: set, not at the clock the batch found: oid 0 enters ``[0, 500]`` at
#: t = 1.5, after the batch began and before it left.
CLOSING = [
    (False, [("register", 0, 500.5, -1.0, "float", 0)]),
    (True, [("register", 1, 500.0, 1.0, "float", 0),
            ("deregister", 0, 0.0, 0.0, "float", 0)]),
]


@pytest.mark.parametrize("keep_history", [False, True])
@pytest.mark.parametrize("system", [
    "database", "sharded", "replicated",
    "sharded-velocity", "replicated-velocity",
])
@settings(max_examples=25, deadline=None)
@example(plan=CROSSINGS)
@example(plan=LAGGING)
@example(plan=CLOSING)
@example(plan=[(True, [("register", 3, 999.5, -1.66, "float64", 0),
                       ("register", 4, 7.0, 1.2, "int", 1),
                       ("register", 3, 5.0, 0.5, "float", 0),
                       ("report", 4, 8.0, 2.0, "float", 3),
                       ("deregister", 5, 0.0, 0.0, "int", 0)])])
@given(plan=steps)
def test_every_write_path_keeps_one_table(system, keep_history, plan):
    run(build(system, keep_history), {}, plan)


@pytest.mark.parametrize("keep_history", [False, True])
@pytest.mark.parametrize("system", ["database", "sharded", "replicated"])
def test_a_rebuilding_storm_keeps_one_table(system, keep_history, monkeypatch):
    """A storm big enough for the forest to rebuild from the table, in
    one epoch with deletes, band crossings and registers: the rebuild
    must see the deletes already gone and every other row still old —
    with history too, whose shards take the same index path."""
    rebuilds = []
    bulk_build = HoughYForestIndex.bulk_build.__func__
    monkeypatch.setattr(HoughYForestIndex, "bulk_build", classmethod(
        lambda cls, *args, **kw: rebuilds.append(cls)
        or bulk_build(cls, *args, **kw)
    ))
    rng = np.random.default_rng(5)
    n = 1200

    def speed(oid, slow):
        v = 0.05 if oid % 10 == slow else rng.uniform(V_MIN, V_MAX)
        return float(v * rng.choice((1, -1)))

    load = [
        RegisterOp(oid, float(rng.uniform(0, Y_MAX)), speed(oid, 0), 0.0)
        for oid in range(n)
    ]
    storm = [DeregisterOp(oid) for oid in range(5, n, 50)] + [
        ReportOp(oid, float(rng.uniform(0, Y_MAX)), speed(oid, 1), 1.0)
        for oid in range(n) if oid % 50 != 5
    ] + [RegisterOp(n + oid, 5.0 * oid, 1.0, 1.0) for oid in range(30)]
    target, model = build(system, keep_history), {}
    for ops in (load, storm):
        rebuilds.clear()
        wanted = [expect(model, op) for op in ops]
        got = target.apply_batch(ops)
        assert [type(g) if g else None for g in got] == wanted
        assert rebuilds
        check(target, model, 1.0, range(n + 30))


def test_a_history_shard_writes_through_the_plain_index_path():
    """The same load and report batch leave a history database's forest
    page for page the plain one's, at the same page cost: history adds
    an archive beside the table and changes nothing in the index."""
    rng = np.random.default_rng(17)
    n = 20_000
    load = [
        RegisterOp(oid, float(rng.uniform(0, Y_MAX)),
                   float(rng.uniform(V_MIN, V_MAX) * rng.choice((1, -1))),
                   0.0)
        for oid in range(n)
    ]
    reports = [
        ReportOp(oid, float(rng.uniform(0, Y_MAX)),
                 float(rng.uniform(V_MIN, V_MAX) * rng.choice((1, -1))),
                 1.0)
        for oid in rng.choice(n, 1000, replace=False).tolist()
    ]
    plain, kept = (
        MotionDatabase(Y_MAX, V_MIN, V_MAX, keep_history=keep)
        for keep in (False, True)
    )
    for db in (plain, kept):
        for ops in (load, reports):
            assert db.apply_batch(ops) == [None] * len(ops)
    assert len(kept.history_snapshot()) == len(reports)
    forests = plain._index._fast._trees, kept._index._fast._trees
    assert forests[0].keys() == forests[1].keys()
    for key, tree in forests[0].items():
        other = forests[1][key]
        assert same_pages(tree, other), key
        assert tree.disk.stats.snapshot() == other.disk.stats.snapshot(), key
