"""Dispatch batch query operations onto the vectorized kernels.

:func:`evaluate_batch` is the single entry point the engine's and the
service's batch paths share: it unpacks a shard's :class:`MotionColumns`
table once, then answers every operation in the batch with whole-
array kernel passes.  Results use the exact container conventions of
the scalar API — ``set`` of python ints for range queries, ranked
``[(oid, distance), ...]`` for k-NN, a ``set`` of unordered int pairs
for proximity — so callers (and the differential harness) can compare
them to the scalar answers with plain ``==``.

:func:`evaluate_arrays` is the same dispatch over bare arrays — the
form worker processes use after snapshotting a shared-memory segment
(:mod:`repro.vector.shm`), so the in-process and cross-process paths
run literally the same code on the same dtypes and stay
byte-identical.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.core.queries import MORQuery1D
from repro.errors import InvalidQueryError
from repro.vector.columns import MotionColumns
from repro.vector.kernels import (
    knn_distances,
    knn_select,
    mor_mask,
    proximity_pairs_blocked,
    snapshot_mask,
)
from repro.vector.ops import Nearest, ProximityPairs, QueryOp, SnapshotAt, Within


def _oids_from_mask(oid: np.ndarray, mask: np.ndarray) -> Set[int]:
    return {int(x) for x in oid[mask]}


def evaluate_arrays(
    oid: np.ndarray,
    y0: np.ndarray,
    v: np.ndarray,
    t0: np.ndarray,
    op: QueryOp,
):
    """Answer one query operation against bare ``(oid, y0, v, t0)`` rows.

    The single kernel-dispatch routine shared by the in-process path
    (:func:`evaluate_query`) and the worker processes, which is what
    makes the ``workers=0`` and pooled answers byte-identical.
    """
    if isinstance(op, Within):
        query = MORQuery1D(op.y1, op.y2, op.t1, op.t2)
        return _oids_from_mask(oid, mor_mask(y0, v, t0, query))
    if isinstance(op, SnapshotAt):
        return _oids_from_mask(
            oid, snapshot_mask(y0, v, t0, op.y1, op.y2, op.t)
        )
    if isinstance(op, Nearest):
        if op.k <= 0:
            # Same contract as the scalar knn_at.
            raise InvalidQueryError(f"k must be positive, got {op.k}")
        return knn_select(oid, knn_distances(y0, v, t0, op.y, op.t), op.k)
    if isinstance(op, ProximityPairs):
        if op.d < 0:
            # Same contracts as the scalar index_distance_join/min_gap.
            raise InvalidQueryError(f"distance must be >= 0, got {op.d}")
        if op.t1 > op.t2:
            raise InvalidQueryError(f"empty window [{op.t1}, {op.t2}]")
        return proximity_pairs_blocked(oid, y0, v, t0, op.d, op.t1, op.t2)
    raise TypeError(f"unknown query operation {op!r}")


def evaluate_query(columns: MotionColumns, op: QueryOp):
    """Answer one query operation against the object table."""
    oid, y0, v, t0 = columns.arrays()
    return evaluate_arrays(oid, y0, v, t0, op)


def evaluate_batch(
    columns: MotionColumns, ops: Sequence[QueryOp]
) -> List:
    """Answer a whole batch against one consistent view of the store,
    unpacking the table once."""
    oid, y0, v, t0 = columns.arrays()
    return [evaluate_arrays(oid, y0, v, t0, op) for op in ops]
