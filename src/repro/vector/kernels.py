"""Vectorized dual-space query kernels (Proposition 1, §3.1-3.5).

Each kernel evaluates one of the paper's geometric predicates over a
whole column store in a few array passes instead of a Python loop per
object:

* :func:`mor_mask` — the MOR membership test.  Proposition 1 phrases
  it as a convex wedge in the Hough-X ``(v, a)`` plane; evaluated in
  the primal it is "the swept interval ``[min(y(t1), y(t2)),
  max(y(t1), y(t2))]`` intersects ``[y1, y2]``".  The kernel uses the
  primal form because it performs *bit-identical* float arithmetic to
  the scalar oracle :func:`repro.core.predicates.matches_1d` — the
  batch paths are differential-tested byte-for-byte against the
  scalar paths, so the kernels must not introduce epsilon drift.
* :func:`hough_y_exact_mask` — the Hough-Y dual filter of §3.5.2,
  which drops the false positives of the forest's rectangle
  ``b``-range (:func:`repro.core.duality.hough_y_b_range`) and names
  the records within its slack of the query's edge, which the forest
  re-checks with :func:`mor_mask`.
* :func:`snapshot_mask` — the MOR1 instant test (§3.6).
* :func:`knn_distances` / :func:`knn_select` — batched k-NN at a
  future instant, with the ``(distance, oid)`` tie-break of
  :func:`repro.extensions.neighbors.knn_at`.
* :func:`proximity_pair_mask` / :func:`proximity_pairs_blocked` — the
  pairwise proximity prefilter: the relative motion of two linear
  motions is linear, so the window-minimum gap of every pair is an
  endpoint/crossing expression evaluated on broadcast blocks.

All kernels take raw arrays (or a :class:`MotionColumns` unpacked via
``arrays()``) and are pure: no I/O simulation, no state.  Zero and
negative velocities are handled where the scalar predicate handles
them; Hough-Y kernels mirror the scalar convention that ``v == 0`` has
no dual image (such rows simply never match).
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.core.queries import MORQuery1D

#: Block edge for the pairwise proximity kernel: bounds peak memory at
#: ``block * n`` floats per broadcast buffer while keeping each block
#: large enough to amortize dispatch overhead.
PAIR_BLOCK = 512


# -- range membership ---------------------------------------------------------


def mor_mask(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, query: MORQuery1D
) -> np.ndarray:
    """Boolean mask of objects satisfying the MOR query.

    Bit-identical to mapping :func:`repro.core.predicates.matches_1d`
    over the rows (same operations in the same order, float64
    throughout), for every velocity including ``v == 0``.
    """
    y_start = y0 + v * (query.t1 - t0)
    y_end = y0 + v * (query.t2 - t0)
    lo = np.minimum(y_start, y_end)
    hi = np.maximum(y_start, y_end)
    return (lo <= query.y2) & (hi >= query.y1)


def snapshot_mask(
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    y1: float,
    y2: float,
    t: float,
) -> np.ndarray:
    """Boolean mask of objects inside ``[y1, y2]`` exactly at ``t``.

    Bit-identical to :func:`repro.core.predicates.matches_mor1`.
    """
    y = y0 + v * (t - t0)
    return (y1 <= y) & (y <= y2)


# -- Hough-Y: the §3.5.2 exact dual filter -----------------------------------


def hough_y_exact_mask(
    n: np.ndarray,
    b: np.ndarray,
    query: MORQuery1D,
    y_r: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hough-Y membership over dual-point columns: ``(hit, sure)``.

    ``hit`` has the arithmetic and relative slack of the scalar
    :func:`repro.core.duality.hough_y_matches`: a superset of the
    answers, used to discard the rectangle approximation's false
    positives.  ``sure`` is the same test with the slack subtracted:
    answers however the dual arithmetic rounded.  Only ``hit & ~sure``
    — records within the slack of an edge — can disagree with the
    primal predicate (:func:`mor_mask`).
    """
    lhs_1 = b + (query.y1 - y_r) * n
    lhs_2 = b + (query.y2 - y_r) * n
    eps_1 = 1e-9 * (1.0 + np.abs(lhs_1) + abs(query.t2))
    eps_2 = 1e-9 * (1.0 + np.abs(lhs_2) + abs(query.t1))
    with np.errstate(invalid="ignore"):
        hit = (lhs_1 <= query.t2 + eps_1) & (lhs_2 >= query.t1 - eps_2)
        sure = (lhs_1 <= query.t2 - eps_1) & (lhs_2 >= query.t1 + eps_2)
    return hit, sure


# -- batched k-nearest-neighbor ----------------------------------------------


def knn_distances(
    y0: np.ndarray, v: np.ndarray, t0: np.ndarray, y: float, t: float
) -> np.ndarray:
    """``|y(t) - y|`` for every object — the k-NN ranking key."""
    return np.abs(y0 + v * (t - t0) - y)


def knn_select(
    oid: np.ndarray, dist: np.ndarray, k: int
) -> List[Tuple[int, float]]:
    """Top-``k`` by ``(distance, oid)`` — the exact knn_at tie-break.

    Returns ``[(oid, distance), ...]``; fewer than ``k`` entries when
    the population is smaller.
    """
    if k <= 0 or oid.size == 0:
        return []
    if k < oid.size:
        # O(n): the k-th smallest distance bounds the answer.  Keeping
        # every row at or under it keeps all ties at the cut, so the
        # oid tie-break below sees the same candidates a full sort
        # would.  (A NaN cut — fewer than k comparable rows — sorts
        # everything.)
        kth = np.partition(dist, k - 1)[k - 1]
        if kth == kth:
            keep = dist <= kth
            oid, dist = oid[keep], dist[keep]
    # lexsort keys are least-significant first: oid breaks dist ties.
    order = np.lexsort((oid, dist))[:k]
    return [(int(oid[i]), float(dist[i])) for i in order]


# -- pairwise proximity -------------------------------------------------------


def proximity_pair_mask(
    g1: np.ndarray, g2: np.ndarray, d: float
) -> np.ndarray:
    """Pairs whose window-minimum gap is at most ``d``.

    ``g1``/``g2`` are the pairwise gaps at the window endpoints; the
    gap of two linear motions is linear, so its |·|-minimum over the
    window is 0 when the sign changes and the nearer endpoint
    otherwise — the same closed form as
    :func:`repro.extensions.joins.min_gap`.
    """
    crossing = ((g1 <= 0.0) & (g2 >= 0.0)) | ((g2 <= 0.0) & (g1 >= 0.0))
    gap = np.where(crossing, 0.0, np.minimum(np.abs(g1), np.abs(g2)))
    return gap <= d


def proximity_pairs_blocked(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    d: float,
    t1: float,
    t2: float,
    block: int = PAIR_BLOCK,
) -> Set[Tuple[int, int]]:
    """All unordered pairs within ``d`` during ``[t1, t2]``.

    Broadcasts the endpoint gaps block-by-block (``block * n`` floats
    of peak scratch) so a 10k-object store does not materialize a
    dense n×n matrix.  Result matches the scalar
    :func:`~repro.extensions.joins.pair_within` pair set exactly.
    """
    n = oid.size
    pairs: Set[Tuple[int, int]] = set()
    if n < 2:
        return pairs
    p1 = y0 + v * (t1 - t0)
    p2 = y0 + v * (t2 - t0)
    for start in range(0, n, block):
        stop = min(start + block, n)
        g1 = p1[start:stop, None] - p1[None, start:]
        g2 = p2[start:stop, None] - p2[None, start:]
        hit = proximity_pair_mask(g1, g2, d)
        rows, cols = np.nonzero(hit)
        keep = cols > rows  # strict upper triangle: each pair once
        for r, c in zip(rows[keep], cols[keep]):
            a = int(oid[start + r])
            b = int(oid[start + c])
            pairs.add((a, b) if a < b else (b, a))
    return pairs
