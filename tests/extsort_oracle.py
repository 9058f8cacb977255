"""The record-at-a-time external merge sort, kept as a test oracle.

``repro.io_sim.extsort`` as it stood before it moved pages of columns
(DESIGN.md §5.8), verbatim but for one line: run formation no longer
appends an empty trailing chunk as a phantom run.  A ``Page.append`` per
record and a ``heapq`` of ``(key, run, record)`` — the definition of
which disk calls an external sort makes, and in which order, that
``tests/test_bulk_columns.py`` holds the block sort to.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.io_sim.pager import DiskSimulator, Page


class RunFile:
    """A sorted sequence of records stored across chained pages."""

    def __init__(self, disk: DiskSimulator, page_capacity: int) -> None:
        self.disk = disk
        self.page_capacity = page_capacity
        self.page_pids: List[int] = []
        self.length = 0

    def append_all(self, records: Iterable[Any]) -> None:
        """Write records sequentially into fresh pages."""
        page: Optional[Page] = None
        for record in records:
            if page is None or page.is_full:
                if page is not None:
                    self.disk.write(page)
                page = self.disk.allocate(self.page_capacity)
                self.page_pids.append(page.pid)
            page.append(record)
            self.length += 1
        if page is not None:
            self.disk.write(page)

    def scan(self) -> Iterator[Any]:
        """Read records back in order (one read per page)."""
        for pid in self.page_pids:
            yield from self.disk.read(pid).items

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
    Intermediate runs are freed as they are merged away.
    """
    if memory_pages < 2:
        raise ValueError(f"need at least 2 memory pages, got {memory_pages}")
    sort_key = key if key is not None else _identity
    # Run formation: sort memory-sized chunks.
    runs: List[RunFile] = []
    chunk_capacity = memory_pages * page_capacity
    chunk: List[Any] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= chunk_capacity:
            runs.append(_write_run(disk, sorted(chunk, key=sort_key), page_capacity))
            chunk = []
    if chunk or not runs:
        runs.append(
            _write_run(disk, sorted(chunk, key=sort_key), page_capacity)
        )
    # Multiway merge passes with fan-in M/B - 1 (one page buffers output).
    fan_in = max(2, memory_pages - 1)
    while len(runs) > 1:
        merged: List[RunFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            if len(group) == 1:
                merged.append(group[0])
                continue
            out = _write_run(
                disk, _merge_scans(group, sort_key), page_capacity
            )
            for run in group:
                run.destroy()
            merged.append(out)
        runs = merged
    return runs[0]


def _identity(record: Any) -> Any:
    return record


def _write_run(
    disk: DiskSimulator, records: Iterable[Any], page_capacity: int
) -> RunFile:
    run = RunFile(disk, page_capacity)
    run.append_all(records)
    return run


def _merge_scans(
    runs: List[RunFile], key: Callable[[Any], Any]
) -> Iterator[Any]:
    streams = [run.scan() for run in runs]
    heap: List[Tuple[Any, int, Any]] = []
    for i, stream in enumerate(streams):
        first = next(stream, _SENTINEL)
        if first is not _SENTINEL:
            heapq.heappush(heap, (key(first), i, first))
    while heap:
        _, i, record = heapq.heappop(heap)
        yield record
        nxt = next(streams[i], _SENTINEL)
        if nxt is not _SENTINEL:
            heapq.heappush(heap, (key(nxt), i, nxt))


class _Sentinel:
    pass


_SENTINEL = _Sentinel()
