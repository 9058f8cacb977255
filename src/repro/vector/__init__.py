"""Vectorized batch query evaluation (``repro.vector``).

The columnar fast path for the paper's dual-space predicates: a
structure-of-arrays mirror of the live population
(:class:`MotionColumns`), whole-population kernels for the Hough-X
wedge / Hough-Y b-range / snapshot / k-NN / proximity predicates
(:mod:`repro.vector.kernels`), a shared batch-query vocabulary
(:mod:`repro.vector.ops`), a versioned memoizing result cache
(:class:`QueryResultCache`), and a shared-memory variant of the store
(:class:`SharedMotionColumns`) whose rows worker processes can read
without pickling (:mod:`repro.vector.shm`).

The vocabulary and the cache are pure Python; the columnar store and
kernels need ``numpy``, a declared hard dependency of the package.
"""

from repro.vector.cache import QueryResultCache
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
    query_key,
)

from repro.vector.columns import MotionColumns
from repro.vector.evaluate import (
    evaluate_arrays,
    evaluate_batch,
    evaluate_query,
)
from repro.vector.shm import SharedMotionColumns, TornSegmentError

__all__ = [
    "MotionColumns",
    "Nearest",
    "ProximityPairs",
    "QueryOp",
    "QueryResultCache",
    "SharedMotionColumns",
    "SnapshotAt",
    "TornSegmentError",
    "Within",
    "evaluate_arrays",
    "evaluate_batch",
    "evaluate_query",
    "query_key",
]
