"""The result cache's one invalidation routine against the per-event
reference (``tests/cache_oracle.py``).

:func:`repro.vector.cache.doomed` decides a whole write set with
broadcast kernels and one set test a result; the reference asks the
scalar question for every (entry, written row) pair.  They must agree
entry for entry — on every query kind, short and full ``Nearest``
answers, members and non-members, each write kind, ``v = 0``,
``±0.0``, motions that touch a query's edge exactly and oids a set
names twice — and a cache driven through puts, write sets, snapshots
and floor events must keep the entries and refuse the puts the
per-event model keeps and refuses, also once a compute window outruns
the write log.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vector import cache as cache_module
from repro.vector.cache import QueryResultCache, doomed
from repro.vector.columns import WriteColumns
from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    ProximityPairs,
    RegisterOp,
    ReportOp,
    SnapshotAt,
    Within,
)

from .cache_oracle import EventCache, affected, events

pytestmark = pytest.mark.batch

#: Small grids, so that positions land exactly on query edges often.
PLACES = (-1.0, -0.0, 0.0, 1.0, 2.0, 3.0)
SPEEDS = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
TIMES = (0.0, 1.0, 2.0)
OIDS = range(5)


# -- strategies -------------------------------------------------------------------


def ordered(values):
    return st.tuples(values, values).map(sorted)


places, times = st.sampled_from(PLACES), st.sampled_from(TIMES)
members = st.frozensets(st.sampled_from(OIDS), max_size=3)


@st.composite
def nearest_entries(draw):
    k = draw(st.integers(1, 3))
    size = draw(st.integers(0, k))  # short (< k) and full answers
    oids = draw(st.permutations(OIDS))[:size]
    dists = sorted(draw(st.lists(
        st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=size, max_size=size
    )))
    return Nearest(draw(places), draw(times), k), list(zip(oids, dists))


entries = st.one_of(
    st.builds(
        lambda y, t, value: (Within(*y, *t), set(value)),
        ordered(places), ordered(times), members,
    ),
    st.builds(
        lambda y, t, value: (SnapshotAt(*y, t), set(value)),
        ordered(places), times, members,
    ),
    nearest_entries(),
    st.builds(
        lambda d, t, pairs: (ProximityPairs(d, *t), set(pairs)),
        st.sampled_from((0.0, 1.0)), ordered(times),
        st.sets(st.sampled_from(list(itertools.combinations(OIDS, 2))),
                max_size=2),
    ),
)

oids = st.sampled_from(OIDS)
# A motion may also start far from every query: a write no entry sees.
motions = (
    oids, st.sampled_from(PLACES + (50.0,)), st.sampled_from(SPEEDS), times
)
write_ops = st.one_of(
    st.builds(RegisterOp, *motions),
    st.builds(ReportOp, *motions),
    st.builds(DeregisterOp, oids),
)
write_sets = st.lists(write_ops, min_size=1, max_size=6).map(WriteColumns)


def per_event(entry, writes):
    op, value = entry
    return any(affected(op, value, *event) for event in events(writes))


# -- the routine ------------------------------------------------------------------


FIXED = [
    (Within(1.0, 2.0, 0.0, 1.0), set()),
    (Within(1.0, 2.0, 0.0, 1.0), {3}),
    (SnapshotAt(1.0, 2.0, 1.0), {4}),
    (SnapshotAt(-0.0, 0.0, 2.0), set()),
    (Nearest(1.0, 1.0, 2), [(3, 0.5)]),
    (Nearest(1.0, 1.0, 2), [(3, 0.5), (4, 1.0)]),
    (Nearest(0.0, 2.0, 1), []),
    (ProximityPairs(1.0, 0.0, 1.0), {(3, 4)}),
    (ProximityPairs(1.0, 0.0, 1.0), set()),
]


def test_each_row_alone_is_the_scalar_test():
    """Every fixed entry against every single row of a grid whose
    positions hit the entries' edges exactly."""
    rows = [DeregisterOp(oid) for oid in (3, 5)] + [
        kind(oid, y0, v, t0)
        for kind in (RegisterOp, ReportOp)
        for oid in (3, 5)
        for y0 in PLACES
        for v in SPEEDS
        for t0 in (0.0, 1.0)
    ]
    for row in rows:
        writes = WriteColumns([row])
        assert doomed(FIXED, writes) == [
            per_event(entry, writes) for entry in FIXED
        ], row


@settings(max_examples=300)
@given(st.lists(entries, max_size=8), write_sets)
def test_a_write_set_dooms_what_some_row_would(cached, writes):
    assert doomed(cached, writes) == [
        per_event(entry, writes) for entry in cached
    ]


def test_long_sets_go_in_blocks_and_agree():
    """More entries × rows than one broadcast buffer holds: the blocked
    sweep finds the one row that reaches each entry, wherever it is."""
    rng = np.random.default_rng(3)
    cached = [
        (Within(float(y), float(y) + 1.0, 0.0, 1.0), set())
        for y in rng.uniform(0, 900, 300).round()
    ]
    writes = WriteColumns([
        RegisterOp(10 + i, float(y), 0.0, 0.0)
        for i, y in enumerate(rng.uniform(0, 1000, 700).round(1))
    ])
    assert doomed(cached, writes) == [
        per_event(entry, writes) for entry in cached
    ]


# -- the cache --------------------------------------------------------------------


steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), entries, st.none() | st.integers(0, 4)),
        st.tuples(st.just("write"), write_sets),
        st.tuples(st.just("bump")),
    ),
    max_size=30,
)


@settings(max_examples=300)
@given(steps, st.sampled_from((1, 2, 3, 5, 256)))
def test_the_cache_keeps_and_refuses_what_the_per_event_model_does(
    script, window
):
    """Puts at generations taken before later write sets (and floor
    events) keep or refuse exactly as the per-event model does, with a
    write log ``window`` rows long; a write set longer than the window
    outruns every put computed before it.  A put takes the current
    generation or the one some earlier step ended at."""
    with mock.patch.object(cache_module, "WRITE_LOG_WINDOW", window):
        cache, model = QueryResultCache(capacity=1000), EventCache(window)
        snapshots = [0]
        for step in script:
            if step[0] == "put":
                (op, value), back = step[1], step[2]
                generation = (
                    model.generation if back is None
                    else snapshots[-1 - back % len(snapshots)]
                )
                cache.put(op, value, generation=generation)
                model.put(op, value, generation)
            elif step[0] == "write":
                cache.on_update_batch(step[1])
                model.on_update_batch(step[1])
            else:
                cache.bump_generation()
                model.bump_generation()
            snapshots.append(cache.generation())
            assert cache.generation() == model.generation
            assert set(cache._entries) == set(model.entries)
            assert cache.stats()["stale_puts"] == model.stale_puts


def test_a_put_replays_only_the_sets_after_its_generation():
    cache = QueryResultCache()
    op = Within(0.0, 10.0, 0.0, 1.0)
    cache.on_update(RegisterOp(7, 5.0, 0.0, 0.0))  # would doom it
    generation = cache.generation()
    cache.on_update(RegisterOp(8, 900.0, 0.0, 0.0))  # cannot
    cache.put(op, {1}, generation=generation)
    assert cache.get(op) == (True, {1})
    assert cache.stats()["stale_puts"] == 0
