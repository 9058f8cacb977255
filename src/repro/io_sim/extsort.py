"""External merge sort over the paged storage simulator.

The classic ``O(n log_{M/B} n)``-I/O sort (Aggarwal & Vitter) that
external-memory constructions lean on: run formation reads ``M/B``
pages at a time and writes sorted runs; multiway merges combine up to
``M/B`` runs per pass.  The library uses it for bulk-building B+-trees
(sorted leaf packing) and it doubles as a reference workload for the
I/O accounting itself.

``memory_pages`` models the sorting buffer (the paper's methods use
tiny buffers, but bulk construction is traditionally allowed a real
one).

The sort moves **blocks** — a list, or a record container that orders
and gathers itself (``argsort()`` / ``take(order)``,
:class:`~repro.bptree.packed.PackedRecords`: one ``np.lexsort`` a run):
a run is one sort call and its pages are slices; a merge plans its
order up front and then makes the disk calls of a record-at-a-time
heap merge, in that merge's order (:func:`_merge`, DESIGN.md §5.8).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.io_sim.pager import DiskSimulator, Page


class RunFile:
    """A sorted sequence of records stored across chained pages."""

    def __init__(self, disk: DiskSimulator, page_capacity: int) -> None:
        self.disk = disk
        self.page_capacity = page_capacity
        self.page_pids: List[int] = []
        self.length = 0

    def append_all(
        self, records: Iterable[Any], fetches: Sequence[Tuple[int, int]] = ()
    ) -> None:
        """Write a block sequentially into fresh pages, a slice a page.

        ``fetches`` are the input pages a merge reads on the way,
        ``(position, pid)`` in position order: the page is read once
        ``position`` records are placed — before the output page that
        fills at that count is written.
        """
        block = _as_block(records)
        capacity = self.page_capacity
        pending = deque(fetches)
        page: Optional[Page] = None
        for start in range(0, len(block), capacity):
            while pending and pending[0][0] <= start:
                self.disk.read(pending.popleft()[1])
            if page is not None:
                self.disk.write(page)
            page = self.disk.allocate(capacity)
            page.items = block[start : start + capacity]
            self.page_pids.append(page.pid)
        for _, pid in pending:
            self.disk.read(pid)
        if page is not None:
            self.disk.write(page)
        self.length += len(block)

    def scan(self) -> Iterator[Any]:
        """Read records back in order (one read per page)."""
        for pid in self.page_pids:
            yield from self.disk.read(pid).items

    def read_block(self) -> Any:
        """Read the run back whole (one read per page), as one block."""
        return _concat([self.disk.read(pid).items for pid in self.page_pids])

    def destroy(self) -> None:
        for pid in self.page_pids:
            self.disk.free(pid)
        self.page_pids = []
        self.length = 0


def external_sort(
    disk: DiskSimulator,
    records: Iterable[Any],
    page_capacity: int,
    memory_pages: int = 8,
    key: Optional[Callable[[Any], Any]] = None,
) -> RunFile:
    """Sort records with bounded memory; returns the final sorted run.

    ``memory_pages`` bounds both the run-formation buffer and the merge
    fan-in, so the pass structure matches the textbook algorithm.
    Intermediate runs are freed as they are merged away.  A list (any
    iterable) is ordered by ``key``; a record container that sorts
    itself, by its key columns, and its pages are that container.
    """
    if memory_pages < 2:
        raise ValueError(f"need at least 2 memory pages, got {memory_pages}")
    block = _as_block(records)
    # Run formation: sort memory-sized chunks.  An empty input is one
    # empty run; a full last chunk is not followed by an empty one.
    chunk_capacity = memory_pages * page_capacity
    runs: List[RunFile] = []
    for start in range(0, max(len(block), 1), chunk_capacity):
        chunk = block[start : start + chunk_capacity]
        run = RunFile(disk, page_capacity)
        run.append_all(_take(chunk, _argsort(chunk, key)))
        runs.append(run)
    # Multiway merge passes with fan-in M/B - 1 (one page buffers output).
    fan_in = max(2, memory_pages - 1)
    while len(runs) > 1:
        merged: List[RunFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) > 1:
                group = [_merge(group, key)]
            merged.extend(group)
        runs = merged
    return runs[0]


def _merge(runs: List[RunFile], key: Optional[Callable[[Any], Any]]) -> RunFile:
    """Merge sorted runs into a new one and free them.

    The merged order is planned from an uncounted look at the runs (a
    stable sort of them end to end breaks ties by run, then by place in
    the run, as the heap does); the reads are then charged where a
    record-at-a-time merge makes them: every run's first page up front,
    in run order, and page ``q + 1`` of a run when the last record of
    its page ``q`` has been placed.
    """
    disk, capacity = runs[0].disk, runs[0].page_capacity
    block = _concat(
        [disk.peek(pid).items for run in runs for pid in run.page_pids]
    )
    order = _argsort(block, key)
    rank = np.empty(len(block), dtype=np.intp)
    rank[order] = np.arange(len(block))
    fetches: List[Tuple[int, int]] = []
    offset = 0
    for run in runs:
        for q, pid in enumerate(run.page_pids):
            last_before = offset + q * capacity - 1
            fetches.append((int(rank[last_before]) + 1 if q else 0, pid))
        offset += run.length
    fetches.sort(key=itemgetter(0))  # stable: first pages stay in run order
    out = RunFile(disk, capacity)
    out.append_all(_take(block, order), fetches)
    for run in runs:
        run.destroy()
    return out


def _as_block(records: Iterable[Any]) -> Any:
    """A list or a record container that sorts itself as it is, any
    other iterable as a list."""
    if isinstance(records, list) or hasattr(records, "argsort"):
        return records
    return list(records)


def _concat(pages: List[Any]) -> Any:
    """Page contents end to end, in a container of their kind."""
    block = type(pages[0])() if pages else []
    for items in pages:
        block.extend(items)
    return block


def _argsort(block: Any, key: Optional[Callable[[Any], Any]]) -> Sequence[int]:
    """The stable permutation that sorts a block: the container's own,
    over its key columns, or Python's sort under ``key``."""
    if key is None and not isinstance(block, list):
        return block.argsort()
    keys = block if key is None else [key(record) for record in block]
    return sorted(range(len(block)), key=keys.__getitem__)


def _take(block: Any, order: Sequence[int]) -> Any:
    if not isinstance(block, list):
        return block.take(order)
    return [block[i] for i in order]
