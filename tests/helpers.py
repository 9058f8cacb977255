"""Shared test helpers: small random mobile-object populations."""

from __future__ import annotations

import copy
import errno
import random
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Dict, List

from repro.bptree.tree import INSERT
from repro.core import (
    LinearMotion1D,
    MobileObject1D,
    MORQuery1D,
    MotionModel,
    Terrain1D,
)
from repro.indexes import HoughYForestIndex
from repro.vector.ops import record_op

#: The paper's §5 parameters, scaled down to a 1000-unit terrain.
PAPER_MODEL = MotionModel(Terrain1D(1000.0), v_min=0.16, v_max=1.66)


def banded_forest(ratio: float) -> type:
    """The forest with its speed bands cut at ``ratio`` (``inf``: the
    paper's one band; 4 / 2.2 / 2 → 2 / 3 / 4 bands on PAPER_MODEL)."""
    return type(
        f"Forest{ratio:g}", (HoughYForestIndex,), {"BAND_RATIO": ratio}
    )


def apply_record(db, record) -> None:
    """One trace/WAL record through ``db.apply_batch``; a refusal raises."""
    refused, = db.apply_batch([record_op(record)])
    if refused is not None:
        raise refused


class HalfWriteThenENOSPC:
    """A file proxy whose first ``write`` lands half its bytes and then
    fails the way a full disk does; everything else passes through."""

    def __init__(self, real) -> None:
        self._real = real
        self._failed = False

    def write(self, data: bytes) -> int:
        if self._failed:
            return self._real.write(data)
        self._failed = True
        self._real.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._real, name)


def fail_next_log_write(service, shard: int) -> None:
    """Make ``shard``'s next log write fail the way a full disk does,
    once: over a file log, its first ``write`` half-lands and raises
    ``ENOSPC`` (:class:`HalfWriteThenENOSPC`); over the in-memory log,
    its next ``ShardWAL.append`` / ``append_batch`` raises ``ENOSPC``
    before it records anything.  The service takes the shard down, as
    it does for any log ``OSError``."""
    wal = service._nodes[shard].wal
    log = getattr(wal.backend, "_log", None)
    if log is not None:
        log._file = HalfWriteThenENOSPC(log._file)
        return

    def full_disk(entries):
        del wal.append_batch  # one shot: the class's method is back
        raise OSError(errno.ENOSPC, "No space left on device")

    wal.append_batch = full_disk


def kill_on_access(service, *victims: int) -> Dict[int, int]:
    """Make each of ``victims`` die between a read's plan and its
    access, as a concurrent ``kill_shard`` would: the first time the
    service asks whether a victim is up (the plan choosing its shards)
    it is, the second time (the access) it has just been killed.
    Returns how often each shard was asked, filled as the service
    runs."""
    asked: Dict[int, int] = {}
    answerable = service._answerable

    def fake(shard: int) -> bool:
        asked[shard] = asked.get(shard, 0) + 1
        if shard in victims and asked[shard] == 2:
            service.kill_shard(shard, reason="killed during a read")
        return answerable(shard)

    service._answerable = fake
    return asked


def random_objects(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    t0_max: float = 100.0,
) -> List[MobileObject1D]:
    """Uniform population following the paper's generator (section 5)."""
    objects = []
    for oid in range(n):
        speed = rng.uniform(model.v_min, model.v_max)
        direction = 1 if rng.random() < 0.5 else -1
        motion = LinearMotion1D(
            y0=rng.uniform(0, model.terrain.y_max),
            v=direction * speed,
            t0=rng.uniform(0, t0_max),
        )
        objects.append(MobileObject1D(oid, motion))
    return objects


def random_queries(
    rng: random.Random,
    n: int,
    model: MotionModel = PAPER_MODEL,
    yq_max: float = 150.0,
    tw_max: float = 60.0,
    t_now: float = 100.0,
) -> List[MORQuery1D]:
    """Random future-window queries (paper's YQMAX / TW scheme)."""
    queries = []
    for _ in range(n):
        y1 = rng.uniform(0, model.terrain.y_max)
        y2 = min(y1 + rng.uniform(0, yq_max), model.terrain.y_max)
        t1 = t_now + rng.uniform(0, tw_max)
        t2 = min(t1 + rng.uniform(0, tw_max), t_now + tw_max)
        t2 = max(t1, t2)
        queries.append(MORQuery1D(y1, y2, t1, t2))
    return queries


def tree_structure(tree) -> list:
    """Preorder dump of a B+-tree's pages: ``(pid, kind, next, items)``.

    Two trees with equal dumps are page-for-page the same structure —
    the oracle for "the batch path builds what the scalar calls build".
    """
    pages = []

    def walk(pid: int) -> None:
        page = tree.disk.peek(pid)
        kind = page.meta["kind"]
        pages.append((pid, kind, page.meta.get("next"), list(page.items)))
        if kind == "internal":
            for _, child_pid, _ in page.items:
                walk(child_pid)

    walk(tree.root_pid)
    return pages


def leaf_pages(tree) -> list:
    """``(pid, records)`` of every leaf in key order, read without I/O
    accounting (a counted scan would warm the buffer and skew a cost
    comparison)."""
    return [
        (pid, items)
        for pid, kind, _, items in tree_structure(tree)
        if kind == "leaf"
    ]


def stored_records(tree) -> list:
    """Every ``(key, value)`` record in key order, uncounted."""
    return [record for _, items in leaf_pages(tree) for record in items]


def apply_scalar(tree, ops) -> None:
    """``apply_sorted`` input, one ``insert`` / ``delete`` call per op."""
    for key, kind, value in ops:
        if kind == INSERT:
            tree.insert(key, value)
        else:
            tree.delete(key)


def same_pages(tree, other) -> bool:
    """Page for page (pids included) the same structure."""
    return tree_structure(tree) == tree_structure(other)


def apply_sorted_beside_scalar(tree, ops):
    """``ops`` through ``tree.apply_sorted``, and through the scalar
    calls on a page-identical copy; holds the batch path to its
    contract and returns the copy (compare with :func:`same_pages`).

    Always: valid tree, same records, no more page accesses than the
    scalar sequence.  Where the scalar sequence split nothing (no leaf
    ever went over capacity, not even for one op: ``pages_allocated``
    stands still) the pages must be identical.  Otherwise a
    run packed a leaf the scalar calls split at the median, and for an
    insert-only batch — no later borrow or merge disturbs the packed
    leaves — each old leaf and the new leaves chained after it differ
    in size by at most one, and there are no more leaves than the
    scalar sequence made.
    """
    scalar = copy.deepcopy(tree)
    old_leaves = {pid for pid, _ in leaf_pages(tree)}
    allocated = scalar.disk.pages_allocated
    before_grouped = tree.disk.stats.snapshot()
    before_scalar = scalar.disk.stats.snapshot()
    tree.apply_sorted(ops)
    apply_scalar(scalar, ops)
    tree.check_invariants()
    assert stored_records(tree) == stored_records(scalar)
    cost_grouped = (tree.disk.stats.snapshot() - before_grouped).total
    cost_scalar = (scalar.disk.stats.snapshot() - before_scalar).total
    assert cost_grouped <= cost_scalar
    if scalar.disk.pages_allocated == allocated:
        assert same_pages(tree, scalar)
    elif all(kind == INSERT for _, kind, _ in ops):
        assert len(leaf_pages(tree)) <= len(leaf_pages(scalar))
        groups: List[List[int]] = []  # an old leaf + the new ones after it
        for pid, items in leaf_pages(tree):
            if pid in old_leaves:
                groups.append([])
            groups[-1].append(len(items))
        assert all(max(sizes) - min(sizes) <= 1 for sizes in groups)
    return scalar


def leaf_pid_of(tree, key) -> int:
    """Pid of the leaf ``key`` routes to, found without I/O accounting."""
    page = tree.disk.peek(tree.root_pid)
    while page.meta["kind"] == "internal":
        page = tree.disk.peek(page.items[tree._route(page, key)][1])
    return page.pid


@contextmanager
def written_vs_changed(disk):
    """Hold a block of work on ``disk`` to "written iff changed".

    Yields an audit whose pid sets are filled in as the block runs and
    when it ends: ``wasted`` — handed to ``write`` with the
    ``(items, meta)`` the disk already held for it (what the page had
    on entry, or at its previous write or allocation inside the
    block); ``missed`` — live at the end with content that was never
    written, a lost update on a real disk.
    """

    def image(page):
        return (list(page.items), dict(page.meta))

    def write(page):
        content = image(page)
        if on_disk.get(page.pid) == content:
            audit.wasted.add(page.pid)
        on_disk[page.pid] = content
        type(disk).write(disk, page)

    def allocate(capacity):
        page = type(disk).allocate(disk, capacity)
        on_disk[page.pid] = image(page)
        return page

    def live_pages():
        pages = map(disk.peek, range(disk.pages_allocated))
        return [page for page in pages if page is not None]

    on_disk = {page.pid: image(page) for page in live_pages()}
    audit = SimpleNamespace(missed=set(), wasted=set())
    disk.write, disk.allocate = write, allocate
    try:
        yield audit
    finally:
        del disk.write, disk.allocate
    audit.missed.update(
        page.pid for page in live_pages() if on_disk[page.pid] != image(page)
    )


def run_audited(disk, operation, *args):
    """``operation(*args)`` under :func:`written_vs_changed`: no page
    may be missed and none wasted."""
    with written_vs_changed(disk) as audit:
        result = operation(*args)
    assert not audit.missed, f"changed but never written: {audit.missed}"
    assert not audit.wasted, f"written back unchanged: {audit.wasted}"
    return result
