"""Paged-storage simulator: the library's stand-in for a real disk.

The paper measures every method by page accesses under the standard
external-memory model (Aggarwal & Vitter): each I/O moves one page of
``B`` records.  :class:`DiskSimulator` reproduces that model in memory:

* pages are allocated with an explicit record capacity (computed from the
  paper's record layouts, see :mod:`repro.io_sim.layout`);
* every :meth:`DiskSimulator.read` and :meth:`DiskSimulator.write` bumps
  the shared :class:`~repro.io_sim.stats.IOStats` counters unless the
  page is found in the (tiny) LRU buffer;
* structures never hold raw page references across operations — they
  re-read pages by id, exactly as a real disk-based structure would.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import PageNotFoundError, PageOverflowError
from repro.io_sim.buffer import LRUBuffer
from repro.io_sim.stats import IOStats


class Page:
    """One disk page: a bounded list of records plus a small metadata dict.

    ``items`` holds the records (at most ``capacity`` of them); ``meta``
    models the page header (sibling pointers, node kind, ...).  Both are
    considered part of the page for accounting purposes.
    """

    __slots__ = ("pid", "capacity", "items", "meta")

    def __init__(self, pid: int, capacity: int) -> None:
        self.pid = pid
        self.capacity = capacity
        self.items: List[Any] = []
        self.meta: Dict[str, Any] = {}

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.items)

    def append(self, record: Any) -> None:
        """Add a record, refusing to exceed the page capacity."""
        if self.is_full:
            raise PageOverflowError(
                f"page {self.pid} is full (capacity {self.capacity})"
            )
        self.items.append(record)

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"Page(pid={self.pid}, {len(self.items)}/{self.capacity})"


class DiskSimulator:
    """In-memory disk with I/O counting and a small LRU buffer.

    Parameters
    ----------
    page_size:
        Page size in bytes; only used by layout helpers and reporting
        (the paper uses 4096).
    buffer_pages:
        Capacity of the LRU buffer.  The paper buffers a root-to-leaf
        path, i.e. 3-4 pages.  Set to 0 to disable buffering.
    """

    def __init__(self, page_size: int = 4096, buffer_pages: int = 4) -> None:
        self.page_size = page_size
        self.stats = IOStats()
        self.buffer = LRUBuffer(buffer_pages)
        self._pages: Dict[int, Page] = {}
        self._next_pid = 0

    # -- lifecycle ---------------------------------------------------------

    def allocate(self, capacity: int) -> Page:
        """Create a new empty page; allocation itself costs one write.

        A freshly allocated page is placed in the buffer, matching how a
        real system would pin a page it is about to fill.
        """
        if capacity <= 0:
            raise ValueError(f"page capacity must be positive, got {capacity}")
        page = Page(self._next_pid, capacity)
        self._next_pid += 1
        self._pages[page.pid] = page
        self.stats.record_write()
        self.buffer.put(page)
        return page

    def free(self, pid: int) -> None:
        """Release a page (no I/O charged; deallocation is a catalog op)."""
        if pid not in self._pages:
            raise PageNotFoundError(f"cannot free unknown page {pid}")
        del self._pages[pid]
        self.buffer.evict(pid)

    # -- access ------------------------------------------------------------

    def read(self, pid: int) -> Page:
        """Fetch a page, charging one read unless it is buffered."""
        page = self.buffer.get(pid)
        if page is not None:
            self.stats.record_buffer_hit()
            return page
        page = self._pages.get(pid)
        if page is None:
            raise PageNotFoundError(f"page {pid} does not exist")
        self.stats.record_read()
        self.buffer.put(page)
        return page

    def write(self, page: Page) -> None:
        """Flush a (modified) page, charging one write."""
        if page.pid not in self._pages:
            raise PageNotFoundError(f"page {page.pid} does not exist")
        self.stats.record_write()
        self.buffer.put(page)

    def peek(self, pid: int) -> Optional[Page]:
        """Inspect a page without any I/O accounting (test/debug helper)."""
        return self._pages.get(pid)

    # -- reporting ---------------------------------------------------------

    @property
    def pages_in_use(self) -> int:
        """Number of live pages — the paper's space metric."""
        return len(self._pages)

    @property
    def pages_allocated(self) -> int:
        """Pages ever allocated, freed ones included (pids are never
        reused) — unchanged across an operation iff it split nothing."""
        return self._next_pid

    @property
    def bytes_in_use(self) -> int:
        return self.pages_in_use * self.page_size

    def clear_buffer(self) -> None:
        """Empty the buffer pool (run before each benchmark query)."""
        self.buffer.clear()

    def __repr__(self) -> str:
        return (
            f"DiskSimulator(pages={self.pages_in_use}, "
            f"page_size={self.page_size}, {self.stats!r})"
        )
