"""I/O accounting for the external-memory simulator.

The paper's experimental metric is the *number of page accesses* per
operation (PODS '99, section 5).  :class:`IOStats` is the single place
where those accesses are tallied; every structure in the library routes
page reads and writes through a :class:`~repro.io_sim.pager.DiskSimulator`
which owns one of these counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass
class IOSnapshot:
    """An immutable snapshot of the counters, used to measure an operation.

    Subtracting two snapshots (``after - before``) yields the I/O cost of
    the work done between them; adding snapshots aggregates costs across
    disks (the multi-disk indexes and the service layer's per-shard
    accounting both do this).
    """

    reads: int = 0
    writes: int = 0
    buffer_hits: int = 0

    @property
    def total(self) -> int:
        """Total page transfers (reads + writes); buffer hits are free."""
        return self.reads + self.writes

    def __sub__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads - other.reads,
            writes=self.writes - other.writes,
            buffer_hits=self.buffer_hits - other.buffer_hits,
        )

    def __add__(self, other: "IOSnapshot") -> "IOSnapshot":
        return IOSnapshot(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            buffer_hits=self.buffer_hits + other.buffer_hits,
        )


def combine_snapshots(snapshots: Iterable[IOSnapshot]) -> IOSnapshot:
    """Sum snapshots from several disks into one aggregate."""
    total = IOSnapshot()
    for snapshot in snapshots:
        total = total + snapshot
    return total


class IOStats:
    """Mutable read/write/hit counters for one simulated disk.

    A *listener* — another :class:`IOStats`, typically one owned by a
    metrics registry — can be attached to mirror every page touch into
    an aggregate counter without the owner having to poll each disk.
    """

    def __init__(self, listener: Optional["IOStats"] = None) -> None:
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self._listener = listener

    def set_listener(self, listener: Optional["IOStats"]) -> None:
        """Attach (or detach, with ``None``) a mirroring listener."""
        self._listener = listener

    def absorb(self, other: "IOStats") -> None:
        """Add ``other``'s counts to this counter and its listener's.

        How a structure that rebuilt itself on fresh disks keeps one
        monotone series per disk: the old counter absorbs the
        rebuild's own I/O and moves to the new disk.
        """
        self.reads += other.reads
        self.writes += other.writes
        self.buffer_hits += other.buffer_hits
        if self._listener is not None:
            self._listener.absorb(other)

    def record_read(self) -> None:
        self.reads += 1
        if self._listener is not None:
            self._listener.record_read()

    def record_write(self) -> None:
        self.writes += 1
        if self._listener is not None:
            self._listener.record_write()

    def record_buffer_hit(self) -> None:
        self.buffer_hits += 1
        if self._listener is not None:
            self._listener.record_buffer_hit()

    @property
    def total(self) -> int:
        """Total page transfers so far (reads + writes)."""
        return self.reads + self.writes

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0

    def snapshot(self) -> IOSnapshot:
        """Capture the current counter values as an immutable snapshot."""
        return IOSnapshot(self.reads, self.writes, self.buffer_hits)

    def __repr__(self) -> str:
        return (
            f"IOStats(reads={self.reads}, writes={self.writes}, "
            f"buffer_hits={self.buffer_hits})"
        )
