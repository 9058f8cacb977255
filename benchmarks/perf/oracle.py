"""The benchmark's own answerer: brute force over acknowledged motions.

:class:`Model` is the harness's record of every write the service
*acknowledged* (columns indexed by object id), and answers the three
read verbs by applying the query predicate to every live row with
plain numpy arithmetic — no call into :mod:`repro.vector.kernels` or
any index, so it shares no code with what it checks.

Semantics (paper §2: ``y(t) = y0 + v·(t − t0)``, extrapolated freely):

* ``Within(y1, y2, t1, t2)`` — the segment swept over ``[t1, t2]``
  overlaps ``[y1, y2]``;
* ``SnapshotAt(y1, y2, t)`` — ``y1 <= y(t) <= y2``;
* ``Nearest(y, t, k)`` — the ``k`` smallest ``|y(t) − y|``, ties to
  the smaller object id, as ``[(oid, distance), ...]``.

All checking happens outside the timed regions.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.vector.ops import (
    DeregisterOp,
    Nearest,
    RegisterOp,
    SnapshotAt,
    Within,
)

#: Distances are recomputed in a different operation order than the
#: kernels use; ids must match exactly, distances to this tolerance.
DISTANCE_TOLERANCE = 1e-9


class Model:
    """Acknowledged motions as columns indexed by object id."""

    def __init__(self, capacity: int) -> None:
        self.y0 = np.zeros(capacity)
        self.v = np.zeros(capacity)
        self.t0 = np.zeros(capacity)
        self.alive = np.zeros(capacity, dtype=bool)

    def copy(self) -> "Model":
        clone = Model(0)
        clone.y0, clone.v, clone.t0, clone.alive = (
            self.y0.copy(), self.v.copy(), self.t0.copy(), self.alive.copy()
        )
        return clone

    def __len__(self) -> int:
        return int(self.alive.sum())

    # -- writes --------------------------------------------------------------

    def expects_ok(self, op) -> bool:
        """Whether the service must accept ``op`` in the current state."""
        if isinstance(op, RegisterOp):
            return not self.alive[op.oid]
        return bool(self.alive[op.oid])

    def apply(self, op) -> None:
        """Record one acknowledged write."""
        if isinstance(op, DeregisterOp):
            self.alive[op.oid] = False
            return
        self.y0[op.oid], self.v[op.oid], self.t0[op.oid] = op.y0, op.v, op.t0
        self.alive[op.oid] = True

    def apply_batch(self, ops: Sequence, outcomes: Sequence) -> int:
        """Record a batch against the service's per-op outcome list.

        Returns how many outcomes disagree with the model (an op the
        model says must succeed came back rejected, or the reverse, or
        the list has the wrong length).  Accepted ops are recorded.
        """
        if len(outcomes) != len(ops):
            return len(ops)
        wrong = 0
        for op, outcome in zip(ops, outcomes):
            ok = self.expects_ok(op)
            if ok != (outcome is None):
                wrong += 1
            if outcome is None:
                self.apply(op)
        return wrong

    def motions(self) -> Dict[int, Tuple[float, float, float]]:
        """``{oid: (y0, v, t0)}`` of every live object."""
        oids = np.flatnonzero(self.alive)
        return {
            int(o): (float(self.y0[o]), float(self.v[o]), float(self.t0[o]))
            for o in oids
        }

    # -- reads ---------------------------------------------------------------

    def _position(self, t: float) -> np.ndarray:
        return self.y0 + self.v * (t - self.t0)

    def answer(self, op):
        """The exact answer to one read, scalar-API container shapes."""
        if isinstance(op, Within):
            a, b = self._position(op.t1), self._position(op.t2)
            mask = (
                self.alive
                & (np.minimum(a, b) <= op.y2)
                & (np.maximum(a, b) >= op.y1)
            )
            return set(np.flatnonzero(mask).tolist())
        if isinstance(op, SnapshotAt):
            y = self._position(op.t)
            mask = self.alive & (op.y1 <= y) & (y <= op.y2)
            return set(np.flatnonzero(mask).tolist())
        if isinstance(op, Nearest):
            dist = np.where(self.alive,
                            np.abs(self._position(op.t) - op.y), np.inf)
            k = min(op.k, len(self))
            if k == 0:
                return []
            # Rank only the rows no farther than the k-th distance.
            oids = np.flatnonzero(dist <= np.partition(dist, k - 1)[k - 1])
            order = np.lexsort((oids, dist[oids]))[:k]
            return [(int(oids[i]), float(dist[oids[i]])) for i in order]
        raise TypeError(f"oracle cannot answer {op!r}")

    def matches(self, op, got) -> bool:
        """Whether the service's answer equals the oracle's."""
        want = self.answer(op)
        if isinstance(op, Nearest):
            if not isinstance(got, list) or len(got) != len(want):
                return False
            return all(
                g[0] == w[0] and abs(g[1] - w[1]) <= DISTANCE_TOLERANCE
                for g, w in zip(got, want)
            )
        return isinstance(got, (set, frozenset)) and got == want


def check_sample(
    model: Model, pairs: Iterable[Tuple[object, object]], limit: int
) -> Tuple[int, int]:
    """Re-answer up to ``limit`` ``(op, answer)`` pairs: (checked, wrong)."""
    checked = wrong = 0
    for op, got in pairs:
        if checked >= limit:
            break
        checked += 1
        if not model.matches(op, got):
            wrong += 1
    return checked, wrong


def answers_digest(answers: Sequence) -> str:
    """SHA-256 of a sequence of answers in canonical form.

    Id sets hash as their sorted ids; ranked lists as ids in rank
    order (distances are excluded: equal rankings, not equal float
    bits, is the cross-workload claim).
    """
    h = hashlib.sha256()
    for answer in answers:
        if isinstance(answer, (set, frozenset)):
            ids: List[int] = sorted(answer)
            h.update(b"S")
        else:
            ids = [oid for oid, _ in answer]
            h.update(b"L")
        h.update(np.asarray(ids, dtype=np.int64).tobytes())
        h.update(b";")
    return h.hexdigest()


def catalog_differences(
    synced: Model,
    later: Dict[int, List[Tuple[float, float, float]]],
    snapshot: Dict[int, object],
) -> Tuple[int, Dict[int, Tuple[float, float, float]]]:
    """Check a restored catalog against what a kill may leave.

    ``synced`` models every write covered by a returned sync; ``later``
    maps an oid to the motions acknowledged for it after that, which
    the kill may or may not have kept; ``snapshot`` is the restored
    service's ``motion_snapshot()``: oid → an object with
    ``y0``/``v``/``t0``.  Compared motion for motion, exactly — WAL
    records carry floats through ``repr`` round-trips.

    Returns ``(lost, kept)``: how many objects are missing, unexpected,
    or hold a motion that is neither the synced one nor a later
    acknowledged one; and the later motions that did survive.
    """
    want = synced.motions()
    lost = sum(1 for oid in snapshot if oid not in want)
    kept: Dict[int, Tuple[float, float, float]] = {}
    for oid, motion in want.items():
        got = snapshot.get(oid)
        if got is None:
            lost += 1
            continue
        got = (got.y0, got.v, got.t0)
        if got == motion:
            continue
        if got in later.get(oid, ()):
            kept[oid] = got
        else:
            lost += 1
    return lost, kept
