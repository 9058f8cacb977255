"""External merge sort over the paged storage simulator.

The classic ``O(n log_{M/B} n)``-I/O sort (Aggarwal & Vitter) that
external-memory constructions lean on: run formation reads ``M/B``
pages at a time and writes sorted runs; multiway merges combine up to
``M/B`` runs per pass.  The library uses it for bulk-building B+-trees
(sorted leaf packing) and it doubles as a reference workload for the
I/O accounting itself.  ``memory_pages`` models the sorting buffer.

The sort moves **blocks** — a list, or a record container that orders
and gathers itself (``argsort()`` / ``take(order)``,
:class:`~repro.bptree.packed.PackedRecords`) — and sorts one **once**:
a run, first-pass or merged, is that order restricted to the input
positions it covers, a pass cuts its runs from it with one stable
partition and one ``take``, and a merge makes a heap merge's disk calls
(:func:`_merge_reads`, DESIGN.md §5.8).
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
        self._block: Any = []  # what the pages were cut from

    def append_all(
        self, records: Iterable[Any], fetches: Sequence[Tuple[int, int]] = ()
    ) -> None:
        """Write the run's one block into fresh pages, a slice a page.

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
        self.length = len(block)
        self._block = block

    def scan(self) -> Iterator[Any]:
        """Read records back in order (one read per page)."""
        for pid in self.page_pids:
            yield from self.disk.read(pid).items

    def read_block(self) -> Any:
        """Read the run back (one read per page) as the block it was."""
        for pid in self.page_pids:
            self.disk.read(pid)
        return self._block

    def destroy(self) -> None:
        for pid in self.page_pids:
            self.disk.free(pid)
        self.page_pids = []
        self.length = 0
        self._block = []


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
    if key is None and not isinstance(block, list):
        order = block.argsort()  # the container's own, by its key columns
    else:  # Python's stable sort under ``key``
        keys = block if key is None else [key(record) for record in block]
        order = np.array(sorted(range(len(block)), key=keys.__getitem__), np.intp)
    # Run formation: memory-sized chunks.  An empty input is one empty
    # run; a full last chunk is not followed by an empty one.
    span = memory_pages * page_capacity  # input positions a run covers
    selected, bounds = _runs_of(order, span)
    taken = _take(block, selected)
    runs = [RunFile(disk, page_capacity) for _ in bounds[1:]]
    for run, lo, hi in zip(runs, bounds, bounds[1:]):
        run.append_all(taken[lo:hi])
    # Multiway merge passes with fan-in M/B - 1 (one page buffers output).
    fan_in = max(2, memory_pages - 1)
    while len(runs) > 1:
        span *= fan_in
        last, starts = selected, bounds
        selected, bounds = _runs_of(order, span)
        # A last group of one run is carried over as it is, not taken.
        alone = len(runs) % fan_in == 1
        taken = _take(block, selected[: bounds[-2] if alone else None])
        merged: List[RunFile] = []
        for g, first in enumerate(range(0, len(runs), fan_in)):
            group = runs[first : first + fan_in]
            if len(group) > 1:
                lo, hi = bounds[g], bounds[g + 1]
                reads = _merge_reads(group, starts[first:], last, selected[lo:hi])
                out = RunFile(disk, page_capacity)
                out.append_all(taken[lo:hi], reads)
                for run in group:
                    run.destroy()
                group = [out]
            merged.extend(group)
        runs = merged
    return runs[0]


def _runs_of(order: np.ndarray, span: int) -> Tuple[np.ndarray, List[int]]:
    """A pass's runs: ``order`` stably partitioned (radix) by input
    position ``// span``, and where each run starts and ends in it."""
    count = -(-len(order) // span)
    if count <= 1:
        return order, [0, len(order)]
    run = (order // span).astype(np.min_scalar_type(count - 1))
    sizes = np.bincount(run, minlength=count)
    return order[np.argsort(run, kind="stable")], [0, *np.cumsum(sizes).tolist()]


def _merge_reads(
    group: List[RunFile], starts: Sequence[int], last: np.ndarray, merged: np.ndarray
) -> List[Tuple[int, int]]:
    """The ``(position, pid)`` reads a heap merge of ``group`` into
    ``merged`` makes: every run's first page up front, in run order,
    and page ``q + 1`` of a run once the last record of its page ``q``
    is placed.  Run ``i`` is ``last`` from ``starts[i]`` on."""
    placed = np.empty(len(last), dtype=np.intp)  # records out, this one too
    placed[merged] = np.arange(1, len(merged) + 1)
    fetches: List[Tuple[int, int]] = []
    for run, start in zip(group, starts):
        pids, size = run.page_pids, run.page_capacity
        ends = last[start - 1 + size * np.arange(1, len(pids))]
        fetches += [(0, pids[0]), *zip(placed[ends].tolist(), pids[1:])]
    return sorted(fetches, key=itemgetter(0))  # first pages stay in run order


def _as_block(records: Iterable[Any]) -> Any:
    """A list or a self-sorting record container as is, else a list."""
    if isinstance(records, list) or hasattr(records, "argsort"):
        return records
    return list(records)


def _take(block: Any, order: np.ndarray) -> Any:
    if not isinstance(block, list):
        return block.take(order)
    return [block[i] for i in order.tolist()]
