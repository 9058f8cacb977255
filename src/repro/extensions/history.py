"""Historical queries over past motion (paper §7 future work).

"Some applications may require keeping the history of mobile objects
(for traffic analysis etc.); then the indices presented need to support
historical queries.  This probably requires making the presented
structures partially persistent."

:class:`HistoryArchive` keeps that history beside a shard's object
table: every motion version an object no longer has is archived with
its *validity interval* ``[t_from, t_to]`` (from the update that created
it to the update that superseded it, or the deregister that ended it)
in an external interval index.  The version an object still has is its
table row, valid from its ``t0`` until now, so the archive holds closed
versions only and the shard's index is the same with history or
without.  A **past** MOR query — "who was inside ``[y1, y2]`` at some
instant of the past window ``[t1, t2]``?" — finds the archived versions
whose validity overlaps the window, tests the open rows as arrays, and
applies the exact predicate on the window clipped to each validity,
which is precisely the partial-persistence semantics the paper
sketches, built from the library's own external interval tree.

Only each object's own versions need to be in time order: a version
closes at the time its closer gives (a report's ``t0``, a deregister's
clock — :class:`~repro.engine.MotionDatabase` decides which), and one
that closes before it began was superseded before it held and is not
archived.  No write is refused for its time.
"""

from __future__ import annotations

import math
from typing import Sequence, Set

import numpy as np

from repro.core.model import LinearMotion1D
from repro.core.queries import MORQuery1D
from repro.interval.tree import IntervalTree
from repro.io_sim.pager import DiskSimulator


class HistoryArchive:
    """The closed motion versions of one shard, on a disk of their own."""

    def __init__(self) -> None:
        self.disk = DiskSimulator()
        self._tree = IntervalTree(self.disk)

    def close(
        self,
        oids: Sequence[int],
        y0: np.ndarray,
        v: np.ndarray,
        t0: np.ndarray,
        t_to,
    ) -> None:
        """Archive the versions ``(oids[i], y0[i], v[i], t0[i])`` as
        valid from their ``t0`` until ``t_to`` (one time, or one per
        version), leaving out each that closes before it began — one
        grouped interval-tree write."""
        t_to = np.broadcast_to(np.asarray(t_to, dtype=np.float64), t0.shape)
        held = t_to >= t0
        self._tree.apply_batch((), [
            (t_from, t_end, (oid, LinearMotion1D(y, speed, t_from)))
            for oid, y, speed, t_from, t_end in zip(
                np.asarray(oids)[held].tolist(), y0[held].tolist(),
                v[held].tolist(), t0[held].tolist(), t_to[held].tolist(),
            )
        ])

    def closed_versions(self) -> list:
        """Every archived version, as portable tuples ``(t_from, t_to,
        oid, y0, v, t0)`` in a deterministic order — the checkpoint
        payload for history preservation."""
        versions = [
            (t_from, t_to, oid, motion.y0, motion.v, motion.t0)
            for t_from, t_to, (oid, motion) in self._tree.overlapping_items(
                -math.inf, math.inf
            )
        ]
        versions.sort()
        return versions

    def restore(self, versions) -> None:
        """Re-insert archived versions saved by :meth:`closed_versions`."""
        self._tree.apply_batch((), [
            (t_from, t_to, (int(oid), LinearMotion1D(y0, v, t0)))
            for t_from, t_to, oid, y0, v, t0 in versions
        ])

    def query(
        self,
        query: MORQuery1D,
        oid: np.ndarray,
        y0: np.ndarray,
        v: np.ndarray,
        t0: np.ndarray,
    ) -> Set[int]:
        """Historical MOR query over the archive and the open rows
        ``(oid, y0, v, t0)`` (the object table's columns).

        A version matches when the object satisfied the range predicate
        at some instant of ``[t1, t2]`` *clipped to the version's
        validity*; an open row is valid from its ``t0`` on.
        """
        t1, t2, y1, y2 = query.t1, query.t2, query.y1, query.y2
        result: Set[int] = set()
        for t_from, t_to, (key, motion) in self._tree.overlapping_items(
            t1, t2
        ):
            a = motion.position(max(t1, t_from))
            b = motion.position(min(t2, t_to))
            if min(a, b) <= y2 and max(a, b) >= y1:
                result.add(key)
        a = y0 + v * (np.maximum(t0, t1) - t0)
        b = y0 + v * (t2 - t0)
        hit = (t0 <= t2) & (np.minimum(a, b) <= y2) & (np.maximum(a, b) >= y1)
        result.update(oid[hit].tolist())
        return result
