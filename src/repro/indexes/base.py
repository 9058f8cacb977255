"""Common interface for 1-D mobile-object indexes.

Every method evaluated in the paper's performance study (section 5) is
implemented as a :class:`MobileIndex1D`: the trajectory-segment R*-tree
baseline, the Hough-X point methods (R*-tree, kd-tree) and the Hough-Y
B+-tree forest.  A shared interface lets the benchmark harness sweep
methods uniformly and lets the 1.5-D route machinery (§4.1) stack any of
them per route.
"""

from __future__ import annotations

import abc
from itertools import compress
from typing import Dict, List, Sequence, Set, Type

import numpy as np

from repro.core.model import MobileObject1D, MotionModel
from repro.core.queries import MORQuery1D
from repro.io_sim.pager import DiskSimulator
from repro.io_sim.stats import IOSnapshot, IOStats
from repro.vector.columns import MotionRows


class MobileIndex1D(abc.ABC):
    """A dynamic external-memory index over 1-D mobile objects.

    Implementations own one or more :class:`DiskSimulator` instances and
    must route every page touch through them, so that the base-class
    accounting helpers report faithful I/O costs.
    """

    #: Short name used by the benchmark harness and the registry.
    name: str = "abstract"

    def __init__(self, model: MotionModel) -> None:
        self.model = model

    # -- core operations -----------------------------------------------------

    @abc.abstractmethod
    def insert(self, obj: MobileObject1D) -> None:
        """Index a new object (its motion info just became valid)."""

    @abc.abstractmethod
    def delete(self, oid: int) -> None:
        """Remove an object from the index."""

    @abc.abstractmethod
    def query(self, query: MORQuery1D) -> Set[int]:
        """Answer a 1-D MOR query with the exact set of object ids."""

    def update(self, obj: MobileObject1D) -> None:
        """Replace an object's motion info (paper §3: delete + insert)."""
        self.delete(obj.oid)
        self.insert(obj)

    # -- batched writes --------------------------------------------------------
    #
    # Each applies its objects in order, and on error the prefix before
    # the failing object remains applied (exactly the scalar loop's
    # semantics).  Callers guarantee
    # oid-uniqueness within one call — the engine splits runs at
    # repeated oids — so overrides are free to reorder internally.
    # The engine makes one call an epoch, :meth:`apply_group`; the
    # three verbs below are its pure-kind cases.

    def apply_group(
        self, leaving: Sequence[int], arriving: Sequence[MobileObject1D]
    ) -> None:
        """Drop the objects ``leaving`` names and index ``arriving``; an
        oid on both sides is an update.  No oid appears twice on one
        side, so the three kinds commute.

        By default the three batch verbs, in the order deletes,
        updates, inserts; an override may apply the whole group at
        once (the forest: one key-sorted run per tree).
        """
        rows = MotionRows.of(arriving)
        gone = set(leaving)
        updated = np.fromiter(
            map(gone.__contains__, rows.keys), bool, len(rows)
        )
        staying = set(compress(rows.keys, updated))
        deletes = [oid for oid in leaving if oid not in staying]
        if deletes:
            self.delete_batch(deletes)
        if updated.any():
            self.update_batch(rows.take(updated))
        if not updated.all():
            self.insert_batch(rows.take(~updated))

    def insert_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Index many new objects in one call (default: scalar loop)."""
        for obj in objs:
            self.insert(obj)

    def update_batch(self, objs: Sequence[MobileObject1D]) -> None:
        """Replace many objects' motions in one call.

        Overrides may rebuild wholesale (e.g. the STR-style bulk-built
        forest) when the batch is large relative to the population;
        query answers must stay identical to the scalar loop.
        """
        for obj in objs:
            self.update(obj)

    def delete_batch(self, oids: Sequence[int]) -> None:
        """Remove many objects in one call (default: scalar loop)."""
        for oid in oids:
            self.delete(oid)

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of objects currently indexed."""

    def share_motions(self, table) -> None:
        """Read object motions from ``table``, the owner's object table
        (:class:`~repro.vector.columns.MotionColumns`), instead of
        keeping a map of one's own.  By default nothing changes: only
        an index that maps oids to motions has a map to give up."""

    # -- I/O accounting --------------------------------------------------------

    @property
    @abc.abstractmethod
    def disks(self) -> Sequence[DiskSimulator]:
        """Every disk this index performs I/O on."""

    def snapshot(self) -> List[IOSnapshot]:
        """Capture per-disk counters; pair with :meth:`io_cost_since`."""
        return [disk.stats.snapshot() for disk in self.disks]

    def io_cost_since(self, snapshots: List[IOSnapshot]) -> int:
        """Total page transfers since ``snapshots`` was captured."""
        return self.io_delta_since(snapshots).total

    def io_delta_since(self, snapshots: List[IOSnapshot]) -> IOSnapshot:
        """Aggregate read/write/hit delta since ``snapshots`` was captured.

        Like :meth:`io_cost_since` but keeps the read/write/buffer-hit
        breakdown, which the service layer's per-operation metrics
        record separately.
        """
        current = self.snapshot()
        delta = IOSnapshot()
        for after, before in zip(current, snapshots):
            delta = delta + (after - before)
        return delta

    def attach_io_listener(self, listener: IOStats) -> None:
        """Mirror every page touch on every disk into ``listener``,
        those already counted included: its totals are the sum of the
        disks' own."""
        for disk in self.disks:
            listener.absorb(disk.stats)
            disk.stats.set_listener(listener)

    @property
    def pages_in_use(self) -> int:
        """Space consumption in pages — the paper's Figure 8 metric."""
        return sum(disk.pages_in_use for disk in self.disks)

    def clear_buffers(self) -> None:
        """Empty all buffer pools (paper's pre-query protocol)."""
        for disk in self.disks:
            disk.clear_buffer()


#: Registry mapping method names to index classes, for the bench harness.
INDEX_REGISTRY: Dict[str, Type[MobileIndex1D]] = {}


def register_index(cls: Type[MobileIndex1D]) -> Type[MobileIndex1D]:
    """Class decorator adding an index to :data:`INDEX_REGISTRY`."""
    if cls.name in INDEX_REGISTRY:
        raise ValueError(f"duplicate index name {cls.name!r}")
    INDEX_REGISTRY[cls.name] = cls
    return cls
