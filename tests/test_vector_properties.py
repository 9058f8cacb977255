"""Property-based agreement: vectorized kernels vs scalar predicates.

Every kernel in :mod:`repro.vector.kernels` claims either bit-identity
with a scalar oracle (`mor_mask` / `snapshot_mask`) or exact agreement
with the scalar dual machinery (`hough_y_exact_mask`, whose ``sure``
half never claims more than its slack-widened ``hit`` half).  Hypothesis
sweeps random motions — including
``v = 0``, negative velocities and empty stores, which the columnar
paths must handle exactly like the scalar ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LinearMotion1D, MOR1Query, MORQuery1D
from repro.core.duality import hough_x, hough_y, hough_y_matches, mor_wedge
from repro.core.predicates import matches_1d, matches_mor1
from repro.vector.columns import MotionColumns
from repro.vector.kernels import (
    hough_y_exact_mask,
    knn_distances,
    knn_select,
    mor_mask,
    snapshot_mask,
)

from .helpers import PAPER_MODEL

pytestmark = pytest.mark.batch

# -- strategies ---------------------------------------------------------------

#: Motions across the full velocity spectrum: fast positive, fast
#: negative, slow, and exactly zero.
any_motions = st.builds(
    LinearMotion1D,
    y0=st.floats(min_value=0, max_value=1000),
    v=st.one_of(
        st.floats(min_value=0.16, max_value=1.66),
        st.floats(min_value=-1.66, max_value=-0.16),
        st.floats(min_value=-0.16, max_value=0.16),
        st.just(0.0),
    ),
    t0=st.floats(min_value=0, max_value=100),
)

positive_motions = st.builds(
    LinearMotion1D,
    y0=st.floats(min_value=0, max_value=1000),
    v=st.floats(min_value=0.16, max_value=1.66),
    t0=st.floats(min_value=0, max_value=100),
)

queries = st.builds(
    lambda y1, dy, t1, dt: MORQuery1D(y1, y1 + dy, t1, t1 + dt),
    y1=st.floats(min_value=0, max_value=900),
    dy=st.floats(min_value=0, max_value=150),
    t1=st.floats(min_value=0, max_value=150),
    dt=st.floats(min_value=0, max_value=60),
)


def columns_of(motions):
    return MotionColumns.from_motions(
        {oid: motion for oid, motion in enumerate(motions)}
    )


# -- primal kernels: bit-identical to the scalar predicates -------------------


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(any_motions, max_size=30), query=queries)
def test_mor_mask_matches_scalar_predicate(ms, query):
    _, y0, v, t0 = columns_of(ms).arrays()
    mask = mor_mask(y0, v, t0, query)
    expected = [matches_1d(m, query) for m in ms]
    assert mask.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    ms=st.lists(any_motions, max_size=30),
    y1=st.floats(min_value=0, max_value=900),
    dy=st.floats(min_value=0, max_value=150),
    t=st.floats(min_value=0, max_value=200),
)
def test_snapshot_mask_matches_scalar_predicate(ms, y1, dy, t):
    _, y0, v, t0 = columns_of(ms).arrays()
    mask = snapshot_mask(y0, v, t0, y1, y1 + dy, t)
    expected = [matches_mor1(m, MOR1Query(y1, y1 + dy, t)) for m in ms]
    assert mask.tolist() == expected


# -- Hough-X: the Proposition 1 wedge -----------------------------------------


@settings(max_examples=100, deadline=None)
@given(ms=st.lists(positive_motions, max_size=30), query=queries)
def test_wedge_membership_equals_primal_for_fast_positive(ms, query):
    """Proposition 1, both directions: for motions inside the model's
    positive speed band the wedge answers exactly the MOR predicate."""
    region = mor_wedge(query, PAPER_MODEL, sign=1, t_ref=0.0)
    for m in ms:
        in_wedge = region.contains(*hough_x(m, 0.0))
        in_primal = matches_1d(m, query)
        if in_wedge != in_primal:
            # The wedge carries epsilon slack for boundary objects;
            # only hair's-breadth disagreements are tolerable.
            y_start = m.position(query.t1)
            y_end = m.position(query.t2)
            lo, hi = min(y_start, y_end), max(y_start, y_end)
            margin = min(abs(lo - query.y2), abs(hi - query.y1))
            assert margin < 1e-6


# -- Hough-Y: the exact dual filter -------------------------------------------


@settings(max_examples=200, deadline=None)
@given(ms=st.lists(positive_motions, max_size=30), query=queries)
def test_hough_y_exact_mask_matches_scalar(ms, query):
    y_r = 0.0
    _, y0, v, t0 = columns_of(ms).arrays()
    # The dual points (n, b) = (1/v, t0 + (y_r - y0)/v), computed with
    # the division chain of the scalar hough_y.
    mask, sure = hough_y_exact_mask(
        1.0 / v, t0 + (y_r - y0) / v, query, y_r
    )
    expected = [hough_y_matches(*hough_y(m, y_r), query, y_r) for m in ms]
    assert mask.tolist() == expected
    assert not (sure & ~mask).any()


# -- k-NN ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    ms=st.lists(any_motions, max_size=25),
    y=st.floats(min_value=0, max_value=1000),
    t=st.floats(min_value=0, max_value=200),
    k=st.integers(min_value=1, max_value=30),
)
def test_knn_select_matches_scalar_ranking(ms, y, t, k):
    oid, y0, v, t0 = columns_of(ms).arrays()
    got = knn_select(oid, knn_distances(y0, v, t0, y, t), k)
    ranked = sorted(
        ((abs(m.position(t) - y), i) for i, m in enumerate(ms))
    )
    expected = [(i, d) for d, i in ranked[:k]]
    assert got == expected


def full_sort_select(oid, dist, k):
    """``knn_select`` as it was before it partitioned: one lexsort of
    every row, then the first ``k``."""
    if k <= 0 or oid.size == 0:
        return []
    order = np.lexsort((oid, dist))[:k]
    return [(int(oid[i]), float(dist[i])) for i in order]


@settings(max_examples=300, deadline=None)
@given(
    dist=st.lists(
        # A handful of repeated values makes ties at the k-th distance
        # and duplicates on both sides of the cut the common case.
        st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                  st.floats(min_value=0, max_value=3)),
        max_size=40,
    ),
    k=st.integers(min_value=1, max_value=45),
    data=st.data(),
)
def test_knn_select_partition_matches_full_sort(dist, k, data):
    oid = data.draw(st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        min_size=len(dist), max_size=len(dist), unique=True,
    ))
    oid, dist = np.array(oid, dtype=np.int64), np.array(dist)
    assert knn_select(oid, dist, k) == full_sort_select(oid, dist, k)


@pytest.mark.parametrize(
    "dist,k",
    [
        ([3.0, 1.0, 2.0, 2.0, 2.0, 5.0], 2),  # three-way tie at the cut
        ([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0], 3),  # duplicates both sides
        ([2.0, 2.0, 2.0, 2.0], 1),  # k = 1, every row tied
        ([0.5, 0.25, 4.0], 3),  # k = n
        ([0.5, 0.25, 4.0], 10),  # k > n
        ([], 3),  # an empty shard
    ],
)
def test_knn_select_edge_cases_match_full_sort(dist, k):
    oid = np.array([9, 8, 7, 3, 5, 1, 4][:len(dist)], dtype=np.int64)
    dist = np.array(dist)
    assert knn_select(oid, dist, k) == full_sort_select(oid, dist, k)


def test_knn_select_breaks_a_tie_at_the_cut_by_oid():
    oid = np.array([9, 8, 7, 3, 5, 1], dtype=np.int64)
    dist = np.array([3.0, 1.0, 2.0, 2.0, 2.0, 5.0])
    assert knn_select(oid, dist, 2) == [(8, 1.0), (3, 2.0)]


# -- empty stores -------------------------------------------------------------


def test_all_kernels_on_empty_store():
    columns = MotionColumns()
    oid, y0, v, t0 = columns.arrays()
    query = MORQuery1D(10.0, 20.0, 1.0, 5.0)
    assert mor_mask(y0, v, t0, query).tolist() == []
    assert snapshot_mask(y0, v, t0, 10.0, 20.0, 1.0).tolist() == []
    hit, sure = hough_y_exact_mask(1.0 / v, t0 - y0 / v, query, 0.0)
    assert hit.tolist() == sure.tolist() == []
    assert knn_select(oid, knn_distances(y0, v, t0, 5.0, 1.0), 3) == []
