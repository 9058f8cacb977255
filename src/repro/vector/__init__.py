"""Vectorized batch query evaluation (``repro.vector``).

The columnar fast path for the paper's dual-space predicates: a
structure-of-arrays table of the live population, one row an object
(:class:`MotionColumns`, each shard's one object store),
whole-population kernels for the Hough-X wedge / Hough-Y b-range /
snapshot / k-NN / proximity predicates
(:mod:`repro.vector.kernels`), a shared batch-query vocabulary
(:mod:`repro.vector.ops`), a versioned memoizing result cache
(:class:`QueryResultCache`), and a shared-memory variant of the store
(:class:`SharedMotionColumns`) whose rows worker processes can read
without pickling (:mod:`repro.vector.shm`).

The vocabulary is pure Python; the columnar store, the kernels and the
cache (which invalidates with the kernels) need ``numpy``, a declared
hard dependency of the package.
"""

from repro.vector.cache import QueryResultCache
from repro.vector.ops import (
    Nearest,
    ProximityPairs,
    QueryOp,
    SnapshotAt,
    Within,
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
]
