"""Historical queries over past motion (paper §7 future work).

"Some applications may require keeping the history of mobile objects
(for traffic analysis etc.); then the indices presented need to support
historical queries.  This probably requires making the presented
structures partially persistent."

:class:`HistoricalIndex` keeps that history alongside any live index:
every motion version an object ever had is archived with its *validity
interval* ``[t_from, t_to)`` (from the update that created it to the
update that superseded it) in an external interval index.  A **past**
MOR query — "who was inside ``[y1, y2]`` at some instant of the past
window ``[t1, t2]``?" — finds the motion versions whose validity
overlaps the window and applies the exact predicate on the clipped
validity, which is precisely the partial-persistence semantics the
paper sketches, built from the library's own external interval tree.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Set, Tuple

from repro.core.model import LinearMotion1D, MobileObject1D, MotionModel
from repro.core.queries import MORQuery1D
from repro.errors import ObjectNotFoundError
from repro.indexes.base import MobileIndex1D
from repro.interval.tree import IntervalTree
from repro.io_sim.layout import INTERVAL_ENTRY
from repro.io_sim.pager import DiskSimulator


class HistoricalIndex(MobileIndex1D):
    """A live index plus a partially persistent archive of past motion.

    * ``insert``/``update``/``delete`` maintain the wrapped live index
      and close/open validity intervals in the archive;
    * :meth:`query` serves the usual *future* MOR query from the live
      index;
    * :meth:`query_past` serves historical MOR queries from the archive.

    Versions still live (no superseding update yet) carry an open right
    end, archived as "until now".  Only each object's own versions need
    to be in time order: a version closes at its successor's ``t0`` (or
    at the delete time), and one whose close time is earlier than its
    own start was superseded before it began and is not archived.
    Writes of different objects may arrive in any time order, so no
    write is refused for its time.
    """

    name = "historical"

    def __init__(
        self,
        model: MotionModel,
        live: MobileIndex1D,
        leaf_capacity: int | None = None,
    ) -> None:
        super().__init__(model)
        self._live = live
        self._archive_disk = DiskSimulator()
        capacity = leaf_capacity or INTERVAL_ENTRY.capacity(
            self._archive_disk.page_size
        )
        self._archive = IntervalTree(self._archive_disk, capacity)
        #: oid -> (current motion, pending-archive validity start)
        self._open_versions: Dict[int, Tuple[LinearMotion1D, float]] = {}
        self._now = -math.inf

    # -- time bookkeeping ------------------------------------------------------

    def _close_version(self, oid: int, t_to: float) -> None:
        """Archive ``oid``'s open version as valid until ``t_to``,
        unless it was superseded before it began."""
        self._now = max(self._now, t_to)
        motion, t_from = self._open_versions.pop(oid)
        if t_to >= t_from:
            self._archive.insert(t_from, t_to, (oid, motion))

    # -- live maintenance ---------------------------------------------------------

    def insert(self, obj: MobileObject1D) -> None:
        self._now = max(self._now, obj.motion.t0)
        self._live.insert(obj)
        self._open_versions[obj.oid] = (obj.motion, obj.motion.t0)

    def delete(self, oid: int, now: float | None = None) -> None:
        """Remove ``oid``, closing its version at ``now`` (default: the
        latest time this index has seen)."""
        if oid not in self._open_versions:
            raise ObjectNotFoundError(f"object {oid} is not indexed")
        self._live.delete(oid)
        self._close_version(oid, self._now if now is None else now)

    def update(self, obj: MobileObject1D) -> None:
        """Supersede the motion: close the old version at the new t0."""
        if obj.oid not in self._open_versions:
            raise ObjectNotFoundError(f"object {obj.oid} is not indexed")
        self._close_version(obj.oid, obj.motion.t0)
        self._live.update(obj)
        self._open_versions[obj.oid] = (obj.motion, obj.motion.t0)

    # -- recovery support -------------------------------------------------------

    def closed_versions(self) -> list:
        """Every archived (superseded/departed) version, as portable
        tuples ``(t_from, t_to, oid, y0, v, t0)`` in a deterministic
        order — the checkpoint payload for history preservation."""
        versions = [
            (t_from, t_to, oid, motion.y0, motion.v, motion.t0)
            for t_from, t_to, (oid, motion) in self._archive.overlapping_items(
                -math.inf, math.inf
            )
        ]
        versions.sort()
        return versions

    def restore_archive(self, versions) -> None:
        """Re-insert archived versions saved by :meth:`closed_versions`."""
        for t_from, t_to, oid, y0, v, t0 in versions:
            self._archive.insert(
                t_from, t_to, (int(oid), LinearMotion1D(y0, v, t0))
            )
            self._now = max(self._now, t_to)

    # -- queries --------------------------------------------------------------------

    def query(self, query: MORQuery1D) -> Set[int]:
        """The usual future-looking MOR query (live index)."""
        return self._live.query(query)

    def query_past(self, query: MORQuery1D) -> Set[int]:
        """Historical MOR query: evaluated against archived versions.

        A version matches when the object satisfied the range predicate
        at some instant of ``[t1, t2]`` *clipped to the version's
        validity*.  Open (still-live) versions participate with their
        validity extended to "now".
        """
        result: Set[int] = set()
        for t_from, t_to, (oid, motion) in self._archive.overlapping_items(
            query.t1, query.t2
        ):
            if self._version_matches(
                motion, query, max(query.t1, t_from), min(query.t2, t_to)
            ):
                result.add(oid)
        for oid, (motion, t_from) in self._open_versions.items():
            if t_from > query.t2:
                continue
            if self._version_matches(
                motion, query, max(query.t1, t_from), query.t2
            ):
                result.add(oid)
        return result

    @staticmethod
    def _version_matches(
        motion: LinearMotion1D, query: MORQuery1D, t_lo: float, t_hi: float
    ) -> bool:
        """Exact predicate on the window clipped to the version validity."""
        if t_lo > t_hi:
            return False
        lo = min(motion.position(t_lo), motion.position(t_hi))
        hi = max(motion.position(t_lo), motion.position(t_hi))
        return lo <= query.y2 and hi >= query.y1

    def __len__(self) -> int:
        return len(self._open_versions)

    @property
    def archived_versions(self) -> int:
        return len(self._archive)

    @property
    def disks(self) -> Sequence[DiskSimulator]:
        return tuple(self._live.disks) + (self._archive_disk,)
