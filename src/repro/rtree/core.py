"""The paged R-tree core shared by the R*-tree and both TPR-trees.

An R-tree's page mechanics do not depend on what its entries bound:
descend choosing one child per level, append, write back bottom-up
(splitting overflowing nodes and growing the root), and on delete find
the leaf, dissolve underfull nodes and shrink the root.
:class:`PagedRTree` holds those mechanics once; a tree supplies only
its policies, as hooks:

* :meth:`~PagedRTree._capacity_at` — a node's capacity at a level (the
  minimum fill, 40% of it, follows);
* :meth:`~PagedRTree._node_mbr` — the bound of a node's entries, as its
  parent stores it;
* :meth:`~PagedRTree._choose_subtree` — which child an insertion
  descends into;
* :meth:`~PagedRTree._split_order` — the order a split cuts, and where;
* :meth:`~PagedRTree._visit_test` — which children the leaf search of a
  delete visits;
* :meth:`~PagedRTree._check_bound` — the containment the invariant walk
  asserts between a parent entry and its child, and
  :meth:`~PagedRTree._leaf_key`, the leaf key of a stored object;
* :meth:`~PagedRTree._overflow` — an alternative to splitting (the
  R*-tree's forced reinsert), and :meth:`~PagedRTree._start_insertion`,
  which tells it a fresh insertion begins.

Every node is one page of a :class:`~repro.io_sim.pager.DiskSimulator`.
A page is written iff it changed: the write-back climb ends at the
first parent entry that did not move, and a root about to be collapsed
is freed unwritten.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ObjectNotFoundError
from repro.io_sim.pager import DiskSimulator, Page

#: Node entry: (bound, child_pid) in internal nodes, (key, oid) in leaves.
Entry = Tuple[Any, Any]

#: A root-to-node descent: ``(page, slot_in_parent)`` per level.
Path = List[Tuple[Page, Optional[int]]]

#: Minimum node fill fraction (the R* paper's 40%).
MIN_FILL_FRACTION = 0.4


class PagedRTree(abc.ABC):
    """Insert, delete and invariant walk of a disk-based R-tree.

    ``_objects`` maps each indexed oid to what the caller stored for
    it (a rectangle, a motion), so deletes go by id alone; the lookup
    is a catalog operation and is not charged I/O.
    """

    def __init__(self, disk: DiskSimulator, root_capacity: int) -> None:
        self._disk = disk
        root = disk.allocate(root_capacity)
        root.meta["level"] = 0
        self._root_pid = root.pid
        self._height = 1
        self._objects: Dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._objects)

    # -- policy hooks ------------------------------------------------------

    @abc.abstractmethod
    def _capacity_at(self, level: int) -> int:
        """A node's capacity at ``level`` (0: the leaves)."""

    def _min_fill_at(self, level: int) -> int:
        return max(2, int(self._capacity_at(level) * MIN_FILL_FRACTION))

    @abc.abstractmethod
    def _node_mbr(self, node: Page) -> Any:
        """The bound of ``node``'s entries, as its parent entry stores it."""

    @abc.abstractmethod
    def _choose_subtree(self, node: Page, bound: Any) -> int:
        """The slot of the child an insertion of ``bound`` descends into."""

    @abc.abstractmethod
    def _split_order(self, node: Page) -> Tuple[List[Entry], int]:
        """The node's entries in split order, and the cut: the first
        ``k`` stay, the rest move to the new sibling."""

    @abc.abstractmethod
    def _visit_test(self, stored: Any) -> Callable[[Any], bool]:
        """For an object's stored value, the test a child bound must
        pass for the leaf search to descend into it."""

    @abc.abstractmethod
    def _check_bound(self, bound: Any, child: Page) -> None:
        """Assert that ``bound``, a parent entry, bounds ``child``."""

    def _leaf_key(self, stored: Any) -> Any:
        """The leaf entry's key for a stored value: by default itself."""
        return stored

    def _overflow(self, path: Path, i: int) -> bool:
        """Treat the overflow of ``path[i]`` without a split; returns
        whether it did (and wrote everything it changed)."""
        return False

    def _start_insertion(self) -> None:
        """A fresh insertion begins: a caller's, or an orphan's after a
        delete."""

    # -- insertion ---------------------------------------------------------

    def _insert_entry(self, entry: Entry, target_level: int) -> None:
        path = self._choose_path(entry[0], target_level)
        node, _ = path[-1]
        node.items.append(entry)
        self._propagate(path)

    def _choose_path(self, bound: Any, target_level: int) -> Path:
        """Descend to ``target_level`` recording ``(page, slot_in_parent)``."""
        page = self._disk.read(self._root_pid)
        path: Path = [(page, None)]
        while page.meta["level"] > target_level:
            slot = self._choose_subtree(page, bound)
            page = self._disk.read(page.items[slot][1])
            path.append((page, slot))
        return path

    def _propagate(self, path: Path) -> None:
        """Fix overflows bottom-up and refresh ancestor bounds.

        Writes the node that took the entry and each ancestor whose
        entries changed; the climb ends at the first child bound that
        did not move, since nothing above it can have changed.
        """
        for i in range(len(path) - 1, -1, -1):
            node, _ = path[i]
            if len(node.items) > self._capacity_at(node.meta["level"]):
                if self._overflow(path, i):
                    return
                sibling_entry = self._split(node)
                if i == 0:
                    self._grow_root(sibling_entry)
                    return
                parent, _ = path[i - 1]
                self._refresh_parent(path, i)
                parent.items.append(sibling_entry)
                continue
            self._disk.write(node)
            if i == 0 or not self._refresh_parent(path, i):
                return

    def _refresh_parent(self, path: Path, i: int) -> bool:
        """Keep the parent's entry for ``path[i]`` tight; returns
        whether the entry, and with it the parent, changed."""
        node, slot = path[i]
        parent, _ = path[i - 1]
        assert slot is not None
        entry = (self._node_mbr(node), node.pid)
        if parent.items[slot] == entry:
            return False
        parent.items[slot] = entry
        return True

    def _split(self, node: Page) -> Entry:
        """Split ``node`` in its policy's order; returns the new
        sibling's parent entry."""
        ordered, k = self._split_order(node)
        sibling = self._disk.allocate(node.capacity)
        sibling.meta["level"] = node.meta["level"]
        sibling.items = ordered[k:]
        node.items = ordered[:k]
        self._disk.write(node)
        self._disk.write(sibling)
        return (self._node_mbr(sibling), sibling.pid)

    def _grow_root(self, sibling_entry: Entry) -> None:
        old_root = self._disk.read(self._root_pid)
        level = old_root.meta["level"] + 1
        new_root = self._disk.allocate(self._capacity_at(level))
        new_root.meta["level"] = level
        new_root.items = [
            (self._node_mbr(old_root), old_root.pid),
            sibling_entry,
        ]
        self._disk.write(new_root)
        self._root_pid = new_root.pid
        self._height += 1

    # -- deletion ----------------------------------------------------------

    def delete(self, oid: Any) -> Any:
        """Remove an object; dissolves underfull nodes (condense tree).
        Returns what was stored for it."""
        stored = self._objects.pop(oid, None)
        if stored is None:
            raise ObjectNotFoundError(f"object {oid!r} is not indexed")
        path = self._find_leaf(oid, self._visit_test(stored))
        assert path is not None, "stored object missing from the tree"
        leaf, _ = path[-1]
        leaf.items = [e for e in leaf.items if e[1] != oid]
        self._condense(path)
        return stored

    def _find_leaf(
        self, oid: Any, visits: Callable[[Any], bool]
    ) -> Optional[Path]:
        stack: List[Path] = [[(self._disk.read(self._root_pid), None)]]
        while stack:
            path = stack.pop()
            node, _ = path[-1]
            if node.meta["level"] == 0:
                if any(entry_oid == oid for _, entry_oid in node.items):
                    return path
                continue
            for slot, (bound, child_pid) in enumerate(node.items):
                if visits(bound):
                    child = self._disk.read(child_pid)
                    stack.append(path + [(child, slot)])
        return None

    def _condense(self, path: Path) -> None:
        """Dissolve underfull nodes bottom-up, then reinsert their
        entries.  Like :meth:`_propagate` it writes only what changed:
        the climb ends at the first child bound that did not move, and
        a root about to be collapsed is freed unwritten."""
        orphans: List[Tuple[Entry, int]] = []
        for i in range(len(path) - 1, 0, -1):
            node, slot = path[i]
            parent, _ = path[i - 1]
            level = node.meta["level"]
            if len(node.items) < self._min_fill_at(level):
                orphans.extend((entry, level) for entry in node.items)
                assert slot is not None
                parent.items.pop(slot)
                self._disk.free(node.pid)
            else:
                self._disk.write(node)
                if not self._refresh_parent(path, i):
                    break
        else:  # the change reached the root
            root, _ = path[0]
            if root.meta["level"] == 0 or len(root.items) != 1:
                self._disk.write(root)  # else _shrink_root frees it
        self._shrink_root()
        for entry, level in orphans:
            self._start_insertion()
            self._insert_entry(entry, level)

    def _shrink_root(self) -> None:
        root = self._disk.read(self._root_pid)
        while root.meta["level"] > 0 and len(root.items) == 1:
            child_pid = root.items[0][1]
            self._disk.free(root.pid)
            self._root_pid = child_pid
            self._height -= 1
            root = self._disk.read(child_pid)

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate capacity, fill, levels, entry count and bounds."""
        count = self._check_node(self._root_pid, is_root=True)
        assert count == len(self._objects), (
            f"entry count mismatch: {count} != {len(self._objects)}"
        )

    def _check_node(self, pid: int, is_root: bool) -> int:
        node = self._disk.peek(pid)
        assert node is not None, f"dangling page {pid}"
        level = node.meta["level"]
        if not is_root:
            assert len(node.items) >= self._min_fill_at(level), (
                f"underfull node {pid}"
            )
        assert len(node.items) <= self._capacity_at(level), f"overfull {pid}"
        if level == 0:
            for key, oid in node.items:
                assert oid in self._objects, f"stale leaf entry {oid!r}"
                assert self._leaf_key(self._objects[oid]) == key, (
                    f"stale entry for {oid!r}"
                )
            return len(node.items)
        count = 0
        for bound, child_pid in node.items:
            child = self._disk.peek(child_pid)
            assert child is not None, f"dangling page {child_pid}"
            assert child.meta["level"] == level - 1, "level mismatch"
            self._check_bound(bound, child)
            count += self._check_node(child_pid, is_root=False)
        return count
