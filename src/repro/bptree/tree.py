"""A dynamic, disk-based B+-tree over the paged storage simulator.

This is the workhorse of the paper's practical method (§3.5.2): each of
the ``c`` observation indexes is "simply a B+-tree" over the Hough-Y
``b``-coordinate.  The implementation is a classic B+-tree:

* leaves hold sorted ``(key, value)`` records and are chained for range
  scans;
* internal nodes hold ``(min_key, child_pid, aggregate)`` routing
  entries (min-key routing);
* nodes split at capacity (evenly, into as many pages as the records
  need) and borrow/merge at half occupancy.

The optional *aggregate* slot supports augmented trees: subclasses
override :meth:`_leaf_aggregate` / :meth:`_merge_aggregates` to maintain
a per-subtree summary (the external interval tree of
:mod:`repro.interval` uses a max-endpoint aggregate to answer overlap
queries with pruning).

Keys may be any totally ordered values (floats, tuples, ...).  All page
touches go through the :class:`~repro.io_sim.pager.DiskSimulator`, and
a page is written iff its content changed since the descent read it:
the leaf always, an ancestor only when it took or lost a child or its
child's ``(min_key, pid, aggregate)`` entry moved — the write-back
stops climbing at the first ancestor that did neither.

Batch maintenance (:meth:`BPlusTree.apply_sorted`) is leaf-at-a-time:
a key-sorted run of deletes and inserts pays one descent and one such
write-back per *touched leaf* rather than per record.  While no leaf
goes over capacity the result is the very tree the scalar calls would
build from the same sorted sequence; a leaf that a run overfills is
packed, once, into evenly filled pages (the scalar sequence would
split at the median with half the run still to come, and again later).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ObjectNotFoundError
from repro.io_sim.pager import DiskSimulator, Page

LEAF = "leaf"
INTERNAL = "internal"

#: Leaf record: (key, value).
LeafEntry = Tuple[Any, Any]
#: Internal record: (min_key, child_pid, aggregate).
InternalEntry = Tuple[Any, int, Any]

#: Operation kinds of :meth:`BPlusTree.apply_sorted`.  ``DELETE`` sorts
#: before ``INSERT`` so a key may be replaced within one batch.
DELETE = 0
INSERT = 1
#: Batch operation: (key, DELETE | INSERT, value); deletes ignore value.
BatchOp = Tuple[Any, int, Any]

#: Sort key of a batch: by record key, deletes first.
batch_order = itemgetter(0, 1)

# Leaf records and routing entries both lead with their key, so one
# accessor lets ``bisect`` search ``page.items`` without copying it.
_entry_key = itemgetter(0)


class BPlusTree:
    """Disk-based B+-tree with duplicate-free keys and range scans.

    Parameters
    ----------
    disk:
        The simulated disk; every node occupies one of its pages.
    leaf_capacity, internal_capacity:
        Maximum records per leaf / routing entries per internal node.
        The paper's observation index uses ``leaf_capacity = 341``
        (3 four-byte fields in a 4096-byte page).
    """

    #: What holds a leaf's records: anything that slices, inserts, pops,
    #: extends and iterates like a list of ``(key, value)``.  The one
    #: place a tree class that owns a record layout swaps in a packed
    #: container (:class:`~repro.bptree.packed.PackedRecords`); every
    #: structural operation below is written against the list protocol.
    leaf_items: Callable[..., Any] = list

    def __init__(
        self,
        disk: DiskSimulator,
        leaf_capacity: int,
        internal_capacity: Optional[int] = None,
    ) -> None:
        if leaf_capacity < 2:
            raise ValueError(f"leaf capacity must be >= 2, got {leaf_capacity}")
        self.disk = disk
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity or leaf_capacity
        if self.internal_capacity < 2:
            raise ValueError(
                f"internal capacity must be >= 2, got {self.internal_capacity}"
            )
        root = disk.allocate(leaf_capacity)
        root.meta["kind"] = LEAF
        root.meta["next"] = None
        root.items = self.leaf_items()
        self._root_pid = root.pid
        self._size = 0
        self._height = 1

    @classmethod
    def bulk_load(
        cls,
        disk: DiskSimulator,
        sorted_items: List[LeafEntry],
        leaf_capacity: int,
        internal_capacity: Optional[int] = None,
        fill: float = 1.0,
    ) -> "BPlusTree":
        """Build a tree from pre-sorted records in ``O(n)`` I/Os.

        Each level takes the fewest pages that hold its records at
        ``fill`` occupancy (1.0 = full pages, the classic bulk load;
        lower values leave room for inserts) and spreads the records
        evenly over them, so sibling pages reach capacity together; the
        index levels are stacked bottom-up.  Keys must be strictly
        increasing.  ``sorted_items`` is a list of records or already
        the tree's :attr:`leaf_items` container; either way a leaf gets
        a slice of it — its own copy.
        """
        if not 0.0 < fill <= 1.0:
            raise ValueError(f"fill factor must be in (0, 1], got {fill}")
        tree = cls(disk, leaf_capacity, internal_capacity)
        if not sorted_items:
            return tree
        if not isinstance(sorted_items, cls.leaf_items):
            sorted_items = cls.leaf_items(sorted_items)
        if not cls._strictly_increasing(sorted_items):
            raise ValueError("bulk load requires strictly sorted keys")
        disk.free(tree._root_pid)  # replace the empty bootstrap root
        chunk = max(2, min(leaf_capacity, int(leaf_capacity * fill)))
        chunks = _balanced_chunks(sorted_items, chunk, leaf_capacity // 2)
        level: List[Page] = []
        prev: Optional[Page] = None
        for records in chunks:
            page = disk.allocate(leaf_capacity)
            page.meta["kind"] = LEAF
            page.meta["next"] = None
            page.items = records
            if prev is not None:
                prev.meta["next"] = page.pid
                disk.write(prev)
            disk.write(page)
            level.append(page)
            prev = page
        while len(level) > 1:
            entries = [
                (page.items[0][0], page.pid, tree._node_aggregate(page))
                for page in level
            ]
            chunk = max(2, min(
                tree.internal_capacity,
                int(tree.internal_capacity * fill),
            ))
            groups = _balanced_chunks(
                entries, chunk, tree.internal_capacity // 2
            )
            parents: List[Page] = []
            for group in groups:
                page = disk.allocate(tree.internal_capacity)
                page.meta["kind"] = INTERNAL
                page.items = group
                disk.write(page)
                parents.append(page)
            level = parents
            tree._height += 1
        tree._root_pid = level[0].pid
        tree._size = len(sorted_items)
        return tree

    @staticmethod
    def _strictly_increasing(items: Any) -> bool:
        """Whether a leaf container's keys each sort below the next."""
        keys = [key for key, _ in items]
        return all(a < b for a, b in zip(keys, keys[1:]))

    # -- aggregation hooks (overridden by augmented trees) ------------------

    def _leaf_aggregate(self, items: List[LeafEntry]) -> Any:
        """Summary of a leaf's records; ``None`` disables augmentation."""
        return None

    def _merge_aggregates(self, aggregates: List[Any]) -> Any:
        """Combine child aggregates into an internal node's summary."""
        return None

    def _node_aggregate(self, page: Page) -> Any:
        if page.meta["kind"] == LEAF:
            return self._leaf_aggregate(page.items)
        return self._merge_aggregates([agg for (_, _, agg) in page.items])

    # A scalar insert or delete changes one record, so an augmented tree
    # can usually derive the leaf's new summary from the one its parent
    # already stores instead of rescanning the page.  ``None`` means
    # "cannot tell": the caller recomputes with :meth:`_leaf_aggregate`.

    def _aggregate_after_insert(self, aggregate: Any, record: LeafEntry) -> Any:
        """A leaf's summary once ``record`` has joined it."""
        return None

    def _aggregate_after_delete(self, aggregate: Any, record: LeafEntry) -> Any:
        """A leaf's summary once ``record`` has left it."""
        return None

    @staticmethod
    def _stored_leaf_aggregate(path: List[Tuple[Page, int]]) -> Any:
        """The summary the parent holds for the path's leaf."""
        if len(path) < 2:
            return None  # a root leaf has no routing entry
        parent, slot = path[-2]
        return parent.items[slot][2]

    # -- properties ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        return self._height

    @property
    def root_pid(self) -> int:
        return self._root_pid

    # -- descent helpers -------------------------------------------------------

    @staticmethod
    def _find(leaf: Page, key: Any) -> Tuple[int, bool]:
        """Slot of ``key`` in ``leaf`` (or where it belongs), and presence."""
        idx = bisect.bisect_left(leaf.items, key, key=_entry_key)
        return idx, idx < len(leaf.items) and leaf.items[idx][0] == key

    @staticmethod
    def _route(page: Page, key: Any) -> int:
        """Child slot whose subtree should contain ``key`` (min-key routing)."""
        idx = bisect.bisect_right(page.items, key, key=_entry_key) - 1
        return max(idx, 0)

    def _descend(self, key: Any) -> List[Tuple[Page, int]]:
        """Read the root-to-leaf path for ``key``.

        Returns ``[(page, child_slot), ..., (leaf, -1)]``; the slot is the
        index of the child followed out of each internal page.
        """
        path: List[Tuple[Page, int]] = []
        page = self.disk.read(self._root_pid)
        while page.meta["kind"] == INTERNAL:
            slot = self._route(page, key)
            path.append((page, slot))
            page = self.disk.read(page.items[slot][1])
        path.append((page, -1))
        return path

    # -- insertion ------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a record; ``key`` must not already be present."""
        path = self._descend(key)
        leaf, _ = path[-1]
        idx, found = self._find(leaf, key)
        if found:
            raise ValueError(f"duplicate key {key!r}")
        record = (key, value)
        leaf.items.insert(idx, record)
        self._size += 1
        self._propagate_after_growth(
            path,
            self._aggregate_after_insert(
                self._stored_leaf_aggregate(path), record
            ),
        )

    def _propagate_after_growth(
        self, path: List[Tuple[Page, int]], leaf_aggregate: Any = None
    ) -> None:
        """Split overflowing nodes bottom-up and refresh routing entries.

        Writes the leaf, then each ancestor whose content changed — it
        took new siblings, was split, or its child's routing entry
        moved — and stops at the first ancestor that did not.
        ``leaf_aggregate``, when given, is the leaf's up-to-date summary
        (saves rescanning the page); a split voids it.
        """
        carry: List[InternalEntry] = []  # new siblings to add above
        for level in range(len(path) - 1, -1, -1):
            page, _ = path[level]
            if carry:
                slot = self._route(page, carry[0][0])
                page.items[slot + 1 : slot + 1] = carry
                carry = []
            if len(page.items) > self._capacity_of(page):
                carry = self._split(page)
                leaf_aggregate = None
            self.disk.write(page)
            if level > 0:
                parent, slot = path[level - 1]
                changed = self._refresh_parent_entry(
                    parent, slot, page, leaf_aggregate
                )
                if not changed and not carry:
                    return  # the parent, and so every page above, is clean
            leaf_aggregate = None  # describes the leaf level only
        if carry:
            self._grow_root(carry)

    def _capacity_of(self, page: Page) -> int:
        return (
            self.leaf_capacity
            if page.meta["kind"] == LEAF
            else self.internal_capacity
        )

    def _split(self, page: Page) -> List[InternalEntry]:
        """Spread an overfull ``page`` evenly over itself and new siblings.

        ``n`` records take ``ceil(n / capacity)`` pages whose sizes
        differ by at most one, smaller first — one record over capacity
        is the classic median split.  Returns the routing entries of
        the new siblings, in key order.
        """
        n = len(page.items)
        parts = -(-n // page.capacity)
        cuts = [i * n // parts for i in range(1, parts + 1)]
        siblings = []
        for lo, hi in zip(cuts, cuts[1:]):
            sibling = self.disk.allocate(page.capacity)
            sibling.meta.update(page.meta)  # the last keeps page's "next"
            sibling.items = page.items[lo:hi]
            siblings.append(sibling)
        del page.items[cuts[0] :]
        if page.meta["kind"] == LEAF:
            for node, successor in zip([page] + siblings, siblings):
                node.meta["next"] = successor.pid
        for sibling in siblings:
            self.disk.write(sibling)
        return [
            (sibling.items[0][0], sibling.pid, self._node_aggregate(sibling))
            for sibling in siblings
        ]

    def _refresh_parent_entry(
        self, parent: Page, slot: int, child: Page, aggregate: Any = None
    ) -> bool:
        """Keep the parent's (min_key, pid, aggregate) entry accurate;
        returns whether the entry, and with it ``parent``, changed."""
        min_key = child.items[0][0]
        if aggregate is None:
            aggregate = self._node_aggregate(child)
        entry = (min_key, child.pid, aggregate)
        if parent.items[slot] == entry:
            return False
        parent.items[slot] = entry
        return True

    def _grow_root(self, siblings: List[InternalEntry]) -> None:
        """Put a new root over the old one and its new ``siblings``; a
        root that comes out overfull splits in turn and the tree grows
        again."""
        while siblings:
            old_root = self.disk.read(self._root_pid)
            new_root = self.disk.allocate(self.internal_capacity)
            new_root.meta["kind"] = INTERNAL
            new_root.items = [
                (
                    old_root.items[0][0],
                    old_root.pid,
                    self._node_aggregate(old_root),
                ),
                *siblings,
            ]
            siblings = (
                self._split(new_root)
                if len(new_root.items) > self.internal_capacity
                else []
            )
            self.disk.write(new_root)
            self._root_pid = new_root.pid
            self._height += 1

    # -- deletion ---------------------------------------------------------------

    def delete(self, key: Any) -> Any:
        """Remove the record with ``key``; returns its value."""
        path = self._descend(key)
        leaf, _ = path[-1]
        idx, found = self._find(leaf, key)
        if not found:
            raise ObjectNotFoundError(f"key {key!r} not found")
        record = leaf.items.pop(idx)
        self._size -= 1
        self._rebalance_after_shrink(
            path,
            self._aggregate_after_delete(
                self._stored_leaf_aggregate(path), record
            ),
        )
        return record[1]

    def _min_fill(self, page: Page) -> int:
        return self._capacity_of(page) // 2

    def _rebalance_after_shrink(
        self, path: List[Tuple[Page, int]], leaf_aggregate: Any = None
    ) -> None:
        """Borrow or merge underfull nodes bottom-up; refresh routing.

        Writes what changed and nothing else, as
        :meth:`_propagate_after_growth` does: the climb ends at the
        first clean ancestor, and a root left with a single child is
        freed, not written.  ``leaf_aggregate`` is as there.
        """
        for level in range(len(path) - 1, 0, -1):
            page, _ = path[level]
            parent, slot = path[level - 1]
            if len(page.items) < self._min_fill(page):
                changed = self._fix_underflow(parent, slot)
            else:
                self.disk.write(page)
                changed = self._refresh_parent_entry(
                    parent, slot, page, leaf_aggregate
                )
            if not changed:
                return
            leaf_aggregate = None  # describes the leaf level only
        root, _ = path[0]
        if root.meta["kind"] == INTERNAL and len(root.items) == 1:
            self._shrink_root(root)
        else:
            self.disk.write(root)

    def _shrink_root(self, root: Page) -> None:
        """Collapse a one-child internal root."""
        while root.meta["kind"] == INTERNAL and len(root.items) == 1:
            child_pid = root.items[0][1]
            self.disk.free(root.pid)
            self._root_pid = child_pid
            self._height -= 1
            root = self.disk.read(child_pid)

    def _fix_underflow(self, parent: Page, slot: int) -> bool:
        """Borrow from a sibling or merge; updates ``parent`` in place
        and returns whether it changed (always, unless the underfull
        page is an only child)."""
        page = self.disk.read(parent.items[slot][1])
        left = (
            self.disk.read(parent.items[slot - 1][1]) if slot > 0 else None
        )
        right = (
            self.disk.read(parent.items[slot + 1][1])
            if slot + 1 < len(parent.items)
            else None
        )
        if left is not None and len(left.items) > self._min_fill(left):
            page.items.insert(0, left.items.pop())
            self.disk.write(left)
            self.disk.write(page)
            self._refresh_parent_entry(parent, slot - 1, left)
            self._refresh_parent_entry(parent, slot, page)
            return True
        if right is not None and len(right.items) > self._min_fill(right):
            page.items.append(right.items.pop(0))
            self.disk.write(right)
            self.disk.write(page)
            self._refresh_parent_entry(parent, slot, page)
            self._refresh_parent_entry(parent, slot + 1, right)
            return True
        # Merge with a sibling (prefer left so leaf chaining stays simple).
        if left is not None:
            absorber, victim, victim_slot = left, page, slot
        elif right is not None:
            absorber, victim, victim_slot = page, right, slot + 1
        else:
            # Parent has a single child; the root shrink pass handles it.
            self.disk.write(page)
            return self._refresh_parent_entry(parent, slot, page)
        absorber.items.extend(victim.items)
        if absorber.meta["kind"] == LEAF:
            absorber.meta["next"] = victim.meta["next"]
        self.disk.write(absorber)
        self.disk.free(victim.pid)
        parent.items.pop(victim_slot)
        self._refresh_parent_entry(parent, victim_slot - 1, absorber)
        return True

    # -- batch maintenance ------------------------------------------------------

    def apply_sorted(self, ops: Sequence[BatchOp]) -> None:
        """Apply a key-sorted batch of deletes and inserts, leaf at a time.

        ``ops`` are ``(key, DELETE | INSERT, value)`` in
        :data:`batch_order`.  Every maximal run of operations routing to
        one leaf shares one descent and one write-back (the leaf, and
        the ancestors the run changed), so the batch costs
        ``O(touched leaves * log_B n)`` page accesses, not
        ``O(len(ops) * log_B n)``.

        A run absorbs every operation that routes to its leaf, and its
        write-back is the scalar propagation itself, so splits, borrows,
        merges and root changes have a single implementation.  While no
        leaf goes over capacity the tree that results is exactly the
        one the scalar :meth:`insert` / :meth:`delete` calls would
        build from the same sequence (an operation that takes the leaf
        below half occupancy ends its run in the scalar borrow or
        merge).  A leaf that ends its run over capacity is *packed*:
        its ``n`` records become ``ceil(n / capacity)`` evenly filled
        leaves (:meth:`_split`) — fewer and fuller pages than the
        scalar sequence's median splits, which would cut the leaf while
        only the low part of an ascending run has arrived — and a
        parent that receives more siblings than it can hold splits by
        the same rule, up to a root that may grow more than one level.
        A duplicate insert or an absent-key delete raises as the scalar
        call would, after the operations before it have been applied
        and written back.
        """
        done = 0
        while done < len(ops):
            path = self._descend(ops[done][0])
            done = self._apply_leaf_run(path, ops, done)

    def _apply_leaf_run(
        self, path: List[Tuple[Page, int]], ops: Sequence[BatchOp], start: int
    ) -> int:
        """Apply ``ops[start:]`` while they route to the path's leaf.

        ``path`` is the descent for ``ops[start]``.  Inserts never end
        the run: a leaf left over capacity is packed by the write-back.
        Returns the index of the first operation left for the next run.
        """
        leaf, _ = path[-1]
        upper = self._next_separator(path)
        min_fill = self._min_fill(leaf) if len(path) > 1 else 0
        # The leaf's summary, carried through the run record by record;
        # None once an operation cannot tell (or nothing is augmented),
        # which makes the write-back recompute it from the page — once.
        aggregate = self._stored_leaf_aggregate(path)
        error: Optional[Exception] = None
        underflow = False
        i = start
        while i < len(ops):
            key, kind, value = ops[i]
            if i > start and (
                (upper is not None and not key < upper)
                # The run deleted the leaf's minimum: once the separator
                # is refreshed a smaller key routes to the leaf before.
                or (leaf.items and key < leaf.items[0][0])
            ):
                break
            idx, found = self._find(leaf, key)
            if kind == INSERT:
                if found:
                    error = ValueError(f"duplicate key {key!r}")
                    break
                leaf.items.insert(idx, (key, value))
                self._size += 1
                i += 1
                if aggregate is not None:
                    aggregate = self._aggregate_after_insert(
                        aggregate, leaf.items[idx]
                    )
            else:
                if not found:
                    error = ObjectNotFoundError(f"key {key!r} not found")
                    break
                record = leaf.items.pop(idx)
                self._size -= 1
                i += 1
                if aggregate is not None:
                    aggregate = self._aggregate_after_delete(aggregate, record)
                if len(leaf.items) < min_fill:
                    underflow = True
                    break
        if underflow:
            self._rebalance_after_shrink(path, aggregate)
        elif i > start:
            self._propagate_after_growth(path, aggregate)
        if error is not None:
            raise error
        return i

    @staticmethod
    def _next_separator(path: List[Tuple[Page, int]]) -> Any:
        """Smallest key routing past the path's leaf (``None``: no bound)."""
        for page, slot in reversed(path[:-1]):
            if slot + 1 < len(page.items):
                return page.items[slot + 1][0]
        return None

    # -- lookups ----------------------------------------------------------------

    def get(self, key: Any) -> Any:
        """Value stored under ``key``; raises if absent."""
        leaf, _ = self._descend(key)[-1]
        idx, found = self._find(leaf, key)
        if not found:
            raise ObjectNotFoundError(f"key {key!r} not found")
        return leaf.items[idx][1]

    def contains(self, key: Any) -> bool:
        try:
            self.get(key)
        except ObjectNotFoundError:
            return False
        return True

    def range_search(self, lo: Any, hi: Any) -> List[Any]:
        """Values of all records with ``lo <= key <= hi`` (leaf-chain scan)."""
        return [value for (_, value) in self.range_items(lo, hi)]

    def range_items(self, lo: Any, hi: Any) -> Iterator[LeafEntry]:
        """Iterate ``(key, value)`` records with ``lo <= key <= hi``."""
        leaf, _ = self._descend(lo)[-1]
        while leaf is not None:
            for key, value in leaf.items:
                if key > hi:
                    return
                if key >= lo:
                    yield (key, value)
            next_pid = leaf.meta["next"]
            leaf = self.disk.read(next_pid) if next_pid is not None else None

    def items(self) -> Iterator[LeafEntry]:
        """Iterate every record in key order (full leaf-chain scan)."""
        page = self.disk.read(self._root_pid)
        while page.meta["kind"] == INTERNAL:
            page = self.disk.read(page.items[0][1])
        while page is not None:
            yield from page.items
            next_pid = page.meta["next"]
            page = self.disk.read(next_pid) if next_pid is not None else None

    # -- invariant checking (used heavily by tests) --------------------------------

    def check_invariants(self) -> None:
        """Validate structure: ordering, fill factors, routing keys, chain."""
        leaves: List[Page] = []
        self._check_node(self._root_pid, is_root=True, leaves=leaves)
        chained = []
        page = self.disk.peek(self._root_pid)
        assert page is not None
        while page.meta["kind"] == INTERNAL:
            page = self.disk.peek(page.items[0][1])
            assert page is not None
        while page is not None:
            chained.append(page.pid)
            next_pid = page.meta["next"]
            page = self.disk.peek(next_pid) if next_pid is not None else None
        assert chained == [leaf.pid for leaf in leaves], "leaf chain broken"
        total = sum(len(leaf.items) for leaf in leaves)
        assert total == self._size, f"size mismatch: {total} != {self._size}"

    def _check_node(
        self, pid: int, is_root: bool, leaves: List[Page]
    ) -> Tuple[Any, Any]:
        page = self.disk.peek(pid)
        assert page is not None, f"dangling page {pid}"
        keys = [entry[0] for entry in page.items]
        assert keys == sorted(keys), f"unsorted node {pid}"
        if not is_root:
            assert len(page.items) >= self._min_fill(page), f"underfull {pid}"
        assert len(page.items) <= self._capacity_of(page), f"overfull {pid}"
        if page.meta["kind"] == LEAF:
            leaves.append(page)
            if page.items:
                return (keys[0], keys[-1])
            assert is_root, "empty non-root leaf"
            return (None, None)
        lo = hi = None
        for i, (min_key, child_pid, _) in enumerate(page.items):
            child_lo, child_hi = self._check_node(
                child_pid, is_root=False, leaves=leaves
            )
            assert child_lo == min_key, f"stale min-key in {pid} slot {i}"
            if hi is not None:
                assert hi < child_lo, f"sibling overlap under {pid}"
            if lo is None:
                lo = child_lo
            hi = child_hi
        return (lo, hi)


def _balanced_chunks(
    items: List[Any], chunk: int, min_fill: int
) -> List[List[Any]]:
    """Spread ``items`` evenly over ``ceil(n / chunk)`` runs.

    Sizes differ by at most one.  When that many runs could not each
    hold ``min_fill`` items (7 records at ``chunk`` 6 and ``min_fill``
    4) the items are spread over fewer, which still fit a page: a run
    of fewer than ``2 * min_fill`` items does.
    """
    n = len(items)
    parts = max(1, min(-(-n // chunk), n // min_fill))
    return [
        items[i * n // parts : (i + 1) * n // parts] for i in range(parts)
    ]
