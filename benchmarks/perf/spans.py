"""Timing shims installed from outside, and the span arithmetic.

The program under test has no tracing of its own, so the traced pass
wraps the public entry point of every layer at run time (``install``)
and puts the originals back afterwards (``uninstall``).  A shim records
one span — name, start, end, the span that caused it — into an
in-memory list; nothing is written until the run ends.

Parent tracking uses a :class:`contextvars.ContextVar`, which follows
both ordinary nesting in a thread and asyncio tasks (each task carries
its own copy).  The one hop it cannot follow is the frontend's: a
``submit`` coroutine parks on a future while the dispatcher task runs
``query_batch`` in a worker thread.  The shims bridge it by op
identity — ``submit`` remembers the span opened for each op object,
and a ``query_batch`` that starts with no parent adopts the oldest
waiting ``submit`` of its clump as parent and is recorded as having
*served* the rest.

Span names are ``<layer>.<entry point>``; the layer is the part before
the first dot and is one of this repo's modules.

A layer's self time is its span minus the part its children cover
(:func:`self_seconds`).  Where siblings overlap — 32 ``submit`` spans
parked on one ``query_batch`` — summing self times would count the
wait 32 times, so shares of a top-level span are taken from a
timeline sweep instead (:func:`exclusive_by_layer`): every instant
goes to the deepest span open at that instant.
"""

from __future__ import annotations

import contextvars
import functools
import heapq
import importlib
import inspect
import os
import time
from collections import defaultdict, deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span record layout (a list, for speed).
NAME, START, END, PARENT, VALUE = range(5)

_current: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "perf_trace_current", default=None
)


class Tracer:
    """In-memory span sink."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: id(op) -> submit spans waiting for a query_batch to serve them.
        self.waiting: Dict[int, deque] = defaultdict(deque)
        #: id(submit span) -> the query_batch span that answered it.
        self.served_by: Dict[int, list] = {}

    def begin(self, name: str) -> Tuple[list, object]:
        rec = [name, 0.0, 0.0, _current.get(), None]
        self.spans.append(rec)
        token = _current.set(rec)
        rec[START] = time.perf_counter()
        return rec, token

    def end(self, rec: list, token) -> None:
        rec[END] = time.perf_counter()
        _current.reset(token)

    def add(self, name: str, start: float, end: float,
            parent: Optional[list], value=None) -> list:
        """Record a span whose times were measured elsewhere."""
        rec = [name, start, end, parent, value]
        self.spans.append(rec)
        return rec

    def span(self, name: str) -> "_HarnessSpan":
        """Context manager for the harness's own top-level spans."""
        return _HarnessSpan(self, name)

    def export(self) -> List[dict]:
        """Spans as JSON-ready dicts; ``request`` is the index of the
        top-level span a span descends from."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        root: Dict[int, int] = {}
        out = []
        for i, rec in enumerate(self.spans):
            parent = rec[PARENT]
            p = index.get(id(parent)) if parent is not None else None
            root[i] = i if p is None else root.get(p, p)
            out.append({
                "name": rec[NAME], "start": rec[START], "end": rec[END],
                "parent": p, "request": root[i], "value": rec[VALUE],
            })
        return out


class _HarnessSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name = tracer, name

    def __enter__(self) -> list:
        self.rec, self._token = self._tracer.begin(self._name)
        return self.rec

    def __exit__(self, *exc) -> None:
        self._tracer.end(self.rec, self._token)


# -- shims --------------------------------------------------------------------


def _shim(tracer: Tracer, name: str, orig: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None) -> Callable:
    """Wrap ``orig`` in a span; ``before(rec, args)`` runs at entry,
    ``after(rec, args, result)`` after the clock has stopped."""
    if inspect.iscoroutinefunction(orig):
        @functools.wraps(orig)
        async def async_shim(*args, **kwargs):
            rec, token = tracer.begin(name)
            if before is not None:
                before(rec, args)
            try:
                return await orig(*args, **kwargs)
            finally:
                tracer.end(rec, token)
        return async_shim

    @functools.wraps(orig)
    def shim(*args, **kwargs):
        rec, token = tracer.begin(name)
        if before is not None:
            before(rec, args)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.end(rec, token)
        if after is not None:
            after(rec, args, result)
        return result
    return shim


#: (module, class or None, attribute, span name).  Scalar verbs ride
#: along with the batch entry points so the scalar phases decompose too.
_TARGETS = [
    ("repro.service.frontend", "AsyncFrontend", "submit", "frontend.submit"),
    *[
        ("repro.service.service", "ShardedMotionService", verb,
         f"service.{verb}")
        for verb in ("query_batch", "apply_batch", "report", "within",
                     "snapshot_at", "nearest")
    ],
    *[
        ("repro.service.replication", "FaultTolerantMotionService", verb,
         f"replication.{verb}")
        for verb in ("query_batch", "apply_batch", "report", "within",
                     "snapshot_at", "nearest", "restore_from_disk")
    ],
    *[
        ("repro.vector.cache", "QueryResultCache", verb, f"cache.{verb}")
        for verb in ("get", "put", "on_update", "on_update_batch")
    ],
    ("repro.service.parallel", "WorkerPool", "query_shards",
     "parallel.query_shards"),
    *[
        ("repro.engine", "MotionDatabase", verb, f"engine.{verb}")
        for verb in ("query_batch", "apply_batch", "register", "report",
                     "deregister", "within", "snapshot_at", "nearest")
    ],
    ("repro.vector.evaluate", None, "evaluate_batch",
     "vector.evaluate_batch"),
    ("repro.vector.columns", "MotionColumns", "apply_events",
     "vector.apply_events"),
    ("repro.vector.columns", "MotionColumns", "upsert", "vector.upsert"),
    ("repro.vector.shm", "SharedMotionColumns", "apply_events",
     "shm.apply_events"),
    ("repro.vector.shm", "SharedMotionColumns", "upsert", "shm.upsert"),
    *[
        ("repro.indexes.hybrid", "HybridIndex", verb, f"indexes.{verb}")
        for verb in ("query", "insert", "update", "delete", "insert_batch",
                     "update_batch", "delete_batch")
    ],
    ("repro.indexes.hough_y_forest", "HoughYForestIndex", "bulk_build",
     "indexes.bulk_build"),
    *[
        ("repro.service.wal", "ShardWAL", verb, f"wal.{verb}")
        for verb in ("append", "append_batch", "sync", "checkpoint")
    ],
    ("repro.storage.log", "DurableLog", "append", "storage.log_append"),
    ("repro.storage.log", "DurableLog", "sync", "storage.log_sync"),
    ("repro.storage.checkpoint", "CheckpointStore", "write",
     "storage.checkpoint_write"),
    ("os", None, "fsync", "storage.fsync"),
]

SPAN_NAMES = tuple(target[3] for target in _TARGETS)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _hooks(tracer: Tracer, name: str):
    """The (before, after) hooks a few entry points need."""
    if name == "frontend.submit":
        def remember(rec, args):
            tracer.waiting[id(args[1])].append(rec)
        return remember, None
    if name in ("service.query_batch", "replication.query_batch"):
        def adopt(rec, args):
            if rec[PARENT] is not None:
                return  # called directly, or the FT class calling its base
            for op in args[1]:
                queue = tracer.waiting.get(id(op))
                if queue:
                    submit = queue.popleft()
                    if rec[PARENT] is None:
                        rec[PARENT] = submit
                    tracer.served_by[id(submit)] = rec
        return adopt, None
    if name == "parallel.query_shards":
        def lanes(rec, args, result):
            # Worker-side time comes from the elapsed map the pool
            # already returns.  A lane (shard % size) runs its shards
            # one after another, so the blocking worker time is the
            # slowest lane's sum; it is placed at the end of the span.
            elapsed = result[1]
            size = args[0].size
            per_lane: Dict[int, float] = defaultdict(float)
            for shard, seconds in elapsed.items():
                per_lane[shard % size] += seconds
            busy = max(per_lane.values(), default=0.0)
            rec[VALUE] = {"worker_busy_s": sum(elapsed.values()),
                          "blocking_s": busy, "tasks": len(elapsed)}
            tracer.add("parallel.worker", rec[END] - busy, rec[END], rec)
        return None, lanes
    if name == "vector.evaluate_batch":
        def waste(rec, args, result):
            returned = sum(len(answer) for answer in result)
            rec[VALUE] = {"ops": len(args[1]),
                          "rows": len(args[0]) * len(args[1]),
                          "returned": returned}
        return None, waste
    if name == "storage.log_append":
        def framed(rec, args, result):
            rec[VALUE] = len(args[1]) + 8  # frame header: length + crc
        return None, framed
    if name == "storage.checkpoint_write":
        def on_disk(rec, args, result):
            store = args[0]
            path = os.path.join(store.directory, store.stats()["checkpoint"])
            rec[VALUE] = os.path.getsize(path)
        return None, on_disk
    return None, None


_MISSING = object()


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, class_name, attr, name in _TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        own = vars(owner).get(attr, _MISSING)
        found = getattr(owner, attr) if own is _MISSING else own
        before, after = _hooks(tracer, name)
        if isinstance(found, classmethod):
            wrapped = classmethod(
                _shim(tracer, name, found.__func__, before, after)
            )
        else:
            wrapped = _shim(tracer, name, found, before, after)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, own))
    return undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, own in reversed(undo):
        if own is _MISSING:
            delattr(owner, attr)  # was inherited, not defined here
        else:
            setattr(owner, attr, own)
    undo.clear()


# -- span arithmetic ------------------------------------------------------------


def children_index(spans: Iterable[list]) -> Dict[int, List[list]]:
    kids: Dict[int, List[list]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            kids[id(rec[PARENT])].append(rec)
    return kids


def _covered(lo: float, hi: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_seconds(rec: list, kids: Dict[int, List[list]]) -> float:
    """Duration minus the part of it the child spans cover."""
    cover = _covered(
        rec[START], rec[END],
        [(k[START], k[END]) for k in kids.get(id(rec), ())],
    )
    return (rec[END] - rec[START]) - cover


def exclusive_by_layer(top: list, kids: Dict[int, List[list]]) -> Dict[str, float]:
    """Split a top-level span's duration among layers.

    Timeline sweep over the span's descendants: each instant belongs
    to the deepest span open at that instant (the top-level span itself
    when none is), so overlapping siblings are not counted twice.  The
    top-level span's own share is returned under ``"(harness)"``.
    """
    members: List[Tuple[list, int]] = []
    stack = [(top, 0)]
    while stack:
        rec, depth = stack.pop()
        members.append((rec, depth))
        for kid in kids.get(id(rec), ()):
            stack.append((kid, depth + 1))
    lo, hi = top[START], top[END]
    events = []
    for order, (rec, depth) in enumerate(members):
        start, end = max(rec[START], lo), min(rec[END], hi)
        if end > start or rec is top:
            events.append((start, 1, order))
            events.append((end, 0, order))
    events.sort()
    shares: Dict[str, float] = defaultdict(float)
    open_heap: List[Tuple[int, float, int]] = []
    closed = set()
    cursor = lo
    for when, opening, order in events:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if open_heap and when > cursor:
            rec = members[open_heap[0][2]][0]
            layer = "(harness)" if rec is top else layer_of(rec[NAME])
            shares[layer] += when - cursor
        cursor = max(cursor, when)
        if opening:
            rec, depth = members[order]
            heapq.heappush(open_heap, (-depth, -rec[START], order))
        else:
            closed.add(order)
    return dict(shares)
