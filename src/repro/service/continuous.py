"""Continuous (standing) MOR queries with incremental maintenance.

The paper's MOR query is one-shot: "who is in ``[y1, y2]`` sometime in
``[t1, t2]``?".  A tracking workload instead *subscribes*: "keep
telling me who is in the band as time advances".  Re-running the
dual-space query every tick answers that, but pays one full index
probe per subscription per tick even when nothing changed.

:class:`SubscriptionManager` maintains each standing result set
incrementally instead.  For linear motion the membership of one object
in one band is governed by a closed-form root — exactly the crossing
times Lemma 3 enumerates in :mod:`repro.kinetic.crossings` — so each
(subscription, object) contributes at most one ``enter`` and one
``exit`` event, computed once and kept in a global event heap.
:meth:`SubscriptionManager.advance` pops the events that became due
and emits :class:`SubscriptionDelta` notifications; nothing else is
touched.  A motion update invalidates only the affected object's
events (version counters make superseded heap entries inert) and
re-derives its membership from the new motion.

Two subscription kinds are supported, each with a one-shot oracle
the incremental answer must equal at every instant ``t``:

``snapshot``
    objects inside ``[y1, y2]`` at ``t`` —
    oracle ``service.snapshot_at(y1, y2, t)``.  Membership interval of
    an object is its band-crossing window ``[t_in, t_out]``.
``within``
    objects inside the band sometime in the sliding window
    ``[t, t + horizon]`` — oracle
    ``service.within(y1, y2, t, t + horizon)``.  The membership
    interval is the crossing window stretched left by ``horizon``.

Intervals are closed on both ends, matching the inclusive comparisons
of :func:`repro.core.predicates.matches_1d`; an ``enter`` event at
time ``T`` fires once ``advance(t)`` reaches ``t >= T`` while an
``exit`` at ``T`` fires only for ``t > T``.

The manager observes writes through the update-listener hook of
:class:`~repro.service.service.ShardedMotionService` (also available
on :class:`~repro.engine.MotionDatabase` and the fault-tolerant
service): one call per acknowledged write set, carrying the ops and
their float64 rows as a :class:`~repro.vector.columns.WriteColumns`,
which the manager walks row by row under one hold of its lock.  A
written row is all a band membership needs, so the manager keeps no
copy of the population: each subscription reads it once, when it
opens (:meth:`SubscriptionManager._subscribe`), and from then on
follows the write stream.  Notifications are delivered in apply order,
so every subscription tracks exactly the acknowledged service state —
which is why subscriptions stay oracle-consistent across shard
crashes and WAL recovery: recovery reconciles replicas, it never
changes acknowledged state.  While any shard is down, subscriptions
are flagged ``stale`` (the
:class:`~repro.service.replication.PartialResult` discipline lifted to
standing queries) instead of raising.

Live rebalancing needs no special handling here for the same reason:
a rebalance move (the service's ``rehome``) carries an object *between
shards* without changing its acknowledged motion.  The manager sees
one ``ReportOp`` row per moved object, holding the object's current
motion, so no membership changes and no delta is emitted — never a
spurious insert/delete for the move.  Subscriptions therefore stay
oracle-consistent through a rebalance; the soak with rebalances
checks that with delta replay.

Locking: the manager has a single lock and **never calls into the
service while holding it** — services notify listeners while holding
shard locks, so the opposite nesting would deadlock.  Listeners must
not raise.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.model import LinearMotion1D
from repro.errors import InvalidQueryError, ObjectNotFoundError
from repro.service.metrics import MetricsRegistry
from repro.vector.columns import WriteColumns
from repro.vector.ops import DeregisterOp

#: Delta kinds.
ENTER = "enter"
EXIT = "exit"

#: Subscription kinds.
KIND_SNAPSHOT = "snapshot"
KIND_WITHIN = "within"

# Heap tie-break at equal event time: enters apply before exits so an
# object touching a band boundary for an instant is reported present.
_RANK = {ENTER: 0, EXIT: 1}


@dataclass(frozen=True)
class SubscriptionDelta:
    """One incremental change to a standing result set.

    ``key`` is the id of the object that entered or left.  ``time`` is
    the instant the change takes effect: a crossing time for events
    fired by :meth:`SubscriptionManager.advance`, the subscription
    clock for changes caused by a motion update.
    """

    time: float
    kind: str
    key: int
    subscription_id: int


def replay_deltas(initial: Iterable, deltas: Iterable[SubscriptionDelta]):
    """Replay a delta stream over ``initial`` and return the final set.

    Raises :class:`ValueError` on an inconsistent stream (an ``enter``
    for a present key or an ``exit`` for an absent one) — the
    "no lost deltas, no double-fires" check the test suites and the
    soak oracle both lean on.
    """
    current = set(initial)
    for delta in deltas:
        if delta.kind == ENTER:
            if delta.key in current:
                raise ValueError(
                    f"double enter for {delta.key!r} at t={delta.time}"
                )
            current.add(delta.key)
        elif delta.kind == EXIT:
            if delta.key not in current:
                raise ValueError(
                    f"exit without enter for {delta.key!r} at t={delta.time}"
                )
            current.remove(delta.key)
        else:
            raise ValueError(f"unknown delta kind {delta.kind!r}")
    return current


class Subscription:
    """One standing query's live state.  Owned by the manager; read it
    through :meth:`SubscriptionManager.result` /
    :meth:`~SubscriptionManager.drain_deltas` (which lock properly)."""

    __slots__ = (
        "sid", "kind", "y1", "y2", "horizon", "stale",
        "_result", "_deltas", "_versions", "_overlay",
    )

    def __init__(
        self,
        sid: int,
        kind: str,
        y1: float,
        y2: float,
        horizon: Optional[float] = None,
    ) -> None:
        self.sid = sid
        self.kind = kind
        self.y1 = y1
        self.y2 = y2
        self.horizon = horizon
        self.stale = False
        self._result: set = set()
        self._deltas: List[SubscriptionDelta] = []
        self._versions: Dict[int, int] = {}
        # While the subscription loads: the writes announced since it
        # registered, oid -> motion (``None`` for a deregister).
        self._overlay: Optional[Dict[int, Optional[LinearMotion1D]]] = {}

    def describe(self) -> Dict[str, object]:
        """A plain-dict view (kind, parameters, size, staleness)."""
        params: Dict[str, object] = {"y1": self.y1, "y2": self.y2}
        if self.kind == KIND_WITHIN:
            params["horizon"] = self.horizon
        return {
            "sid": self.sid,
            "kind": self.kind,
            "params": params,
            "size": len(self._result),
            "pending_deltas": len(self._deltas),
            "stale": self.stale,
        }


class SubscriptionManager:
    """Standing MOR queries over a motion service, maintained by events.

    Parameters
    ----------
    service:
        Any object with the update-listener protocol
        (``attach_update_listener`` / ``motion_snapshot``) and the
        query menu — :class:`~repro.engine.MotionDatabase`,
        :class:`~repro.service.service.ShardedMotionService` or
        :class:`~repro.service.replication.FaultTolerantMotionService`.
        The manager may attach at any time, under write traffic too.
    metrics:
        Registry for the event/delta/invalidation counters; defaults
        to the service's own registry so ``service_stats()`` shows the
        subscription counters alongside the operation table.
    """

    def __init__(
        self,
        service,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._service = service
        self.metrics = (
            metrics
            or getattr(service, "metrics", None)
            or MetricsRegistry()
        )
        self._lock = threading.RLock()
        self._subs: Dict[int, Subscription] = {}
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._next_sid = itertools.count(1)
        self._closed = False
        self._now = float(getattr(service, "now", 0.0))
        service.attach_update_listener(self._on_update)
        self._c_events = self.metrics.counter("subscription_events_fired")
        self._c_stale = self.metrics.counter("subscription_events_stale")
        self._c_deltas = self.metrics.counter("subscription_deltas_emitted")
        self._c_invalidations = self.metrics.counter(
            "subscription_invalidations"
        )
        self._c_probes = self.metrics.counter("subscription_index_probes")
        self._c_naive = self.metrics.counter("subscription_naive_probes")
        self._c_anomalies = self.metrics.counter("subscription_anomalies")

    # -- lifecycle ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """The subscription clock (the last ``advance`` target)."""
        return self._now

    def close(self) -> None:
        """Detach from the service; the manager stops tracking writes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._service.detach_update_listener(self._on_update)

    # -- subscribing -------------------------------------------------------------

    def subscribe_snapshot(self, y1: float, y2: float) -> int:
        """Standing instant query: who is in ``[y1, y2]`` right now."""
        return self._subscribe(KIND_SNAPSHOT, y1=y1, y2=y2)

    def subscribe_within(self, y1: float, y2: float, horizon: float) -> int:
        """Standing MOR query over the sliding window
        ``[now, now + horizon]``."""
        if horizon < 0:
            raise InvalidQueryError(f"horizon must be >= 0, got {horizon}")
        return self._subscribe(KIND_WITHIN, y1=y1, y2=y2, horizon=horizon)

    def _subscribe(
        self, kind: str, y1: float, y2: float,
        horizon: Optional[float] = None,
    ) -> int:
        """Register first, read second, then fold in what the read may
        have missed: a write announced before registration is in the
        read (a service announces a write before it releases the
        write's locks), one announced after is in the overlay, which
        wins.  The read runs outside the lock, as any call into the
        service must."""
        if y1 > y2:
            raise InvalidQueryError(f"empty band [{y1}, {y2}]")
        with self._lock:
            sid = next(self._next_sid)
            sub = Subscription(sid, kind, y1, y2, horizon)
            self._subs[sid] = sub
        population = dict(self._service.motion_snapshot())
        with self._lock:
            if self._subs.get(sid) is sub:  # not cancelled meanwhile
                population.update(sub._overlay)
                sub._overlay = None
                # The one full evaluation this subscription ever needs:
                # every object's membership interval, in closed form.
                for oid, motion in population.items():
                    self._refresh(sub, oid, motion, self._now, emit=False)
            self._c_probes.increment()
        return sid

    def cancel(self, sid: int) -> List[SubscriptionDelta]:
        """Drop a subscription; returns its undelivered deltas.

        Heap entries of a cancelled subscription become inert and are
        discarded as they surface.
        """
        with self._lock:
            sub = self._require(sid)
            del self._subs[sid]
            pending, sub._deltas = sub._deltas, []
            return pending

    # -- reading -----------------------------------------------------------------

    def subscription_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._subs)

    def subscription(self, sid: int) -> Dict[str, object]:
        """Introspection view of one subscription (plain dict)."""
        with self._lock:
            return self._require(sid).describe()

    def result(self, sid: int) -> frozenset:
        """The current standing result set (oids, or oid pairs)."""
        with self._lock:
            return frozenset(self._require(sid)._result)

    def is_stale(self, sid: int) -> bool:
        """True when the last ``advance`` saw dead shards: the result
        may be missing writes that could not be acknowledged."""
        with self._lock:
            return self._require(sid).stale

    def drain_deltas(self, sid: int) -> List[SubscriptionDelta]:
        """All deltas emitted since the last drain, in effect order."""
        with self._lock:
            sub = self._require(sid)
            drained, sub._deltas = sub._deltas, []
            return drained

    def stats(self) -> Dict[str, object]:
        with self._lock:
            by_kind: Dict[str, int] = {}
            for sub in self._subs.values():
                by_kind[sub.kind] = by_kind.get(sub.kind, 0) + 1
            return {
                "now": self._now,
                "subscriptions": len(self._subs),
                "by_kind": by_kind,
                "stale": sum(1 for s in self._subs.values() if s.stale),
                "heap_events": len(self._heap),
            }

    # -- the incremental hot path ------------------------------------------------

    def advance(self, t: float) -> List[SubscriptionDelta]:
        """Move the subscription clock to ``t``; fire the due events.

        Returns the deltas fired *by time progression* during this
        call (update-triggered deltas are only in the per-subscription
        logs).  Never raises for dead shards — it marks subscriptions
        stale instead, mirroring ``PartialResult`` degradation.
        """
        with self._lock:
            if not t >= self._now:  # NaN fails too
                raise InvalidQueryError(
                    f"advance({t}) is NaN or would move time backwards "
                    f"from {self._now}"
                )
            fired: List[SubscriptionDelta] = []
            heap = self._heap
            while heap:
                time_, _rank, _seq, sid, key, version, kind = heap[0]
                # Closed intervals: enter at T is due once t >= T,
                # exit at T only once t > T.
                if time_ > t or (kind == EXIT and time_ == t):
                    break
                heapq.heappop(heap)
                sub = self._subs.get(sid)
                if sub is None or sub._versions.get(key) != version:
                    self._c_stale.increment()
                    continue
                self._c_events.increment()
                if kind == ENTER:
                    if key in sub._result:
                        self._c_anomalies.increment()
                        continue
                    sub._result.add(key)
                else:
                    if key not in sub._result:
                        self._c_anomalies.increment()
                        continue
                    sub._result.remove(key)
                delta = SubscriptionDelta(time_, kind, key, sid)
                sub._deltas.append(delta)
                fired.append(delta)
            self._c_deltas.increment(len(fired))
            self._now = t
        down = getattr(self._service, "down_shards", None)
        stale = bool(down()) if down is not None else False
        with self._lock:
            for sub in self._subs.values():
                sub.stale = stale
        return fired

    def reevaluate(self, sid: int):
        """The naive answer: run the equivalent one-shot query against
        the service at the current subscription clock.

        This is the oracle the incremental result must equal — the
        soak's check rounds and the stateful tests run it for the
        divergence check.  May return a
        ``PartialResult`` while shards are down.
        """
        with self._lock:
            sub = self._require(sid)
            kind = sub.kind
            y1, y2, horizon = sub.y1, sub.y2, sub.horizon
            now = self._now
        self._c_naive.increment()
        if kind == KIND_SNAPSHOT:
            return self._service.snapshot_at(y1, y2, now)
        return self._service.within(y1, y2, now, now + horizon)

    # -- internals ---------------------------------------------------------------

    def _require(self, sid: int) -> Subscription:
        sub = self._subs.get(sid)
        if sub is None:
            raise ObjectNotFoundError(f"no subscription with id {sid}")
        return sub

    @staticmethod
    def _interval(
        sub: Subscription, motion: Optional[LinearMotion1D]
    ) -> Optional[Tuple[float, float]]:
        """The closed time interval during which ``motion`` satisfies
        the subscription, or ``None`` if it never does.

        Linear motion crosses a band at most once, so one interval
        captures the whole future (and past) — the closed-form root
        that makes event-driven maintenance possible.
        """
        if motion is None:
            return None
        window = motion.time_interval_in_range(sub.y1, sub.y2)
        if window is None:
            return None
        if sub.kind == KIND_WITHIN:
            # In the sliding-window answer from `horizon` earlier: the
            # object is reported while [t, t+horizon] overlaps the
            # crossing window.
            return (window[0] - sub.horizon, window[1])
        return window

    def _refresh(
        self,
        sub: Subscription,
        key: int,
        motion: Optional[LinearMotion1D],
        now: float,
        emit: bool,
    ) -> None:
        """Re-derive one object's membership and future events from its
        motion (``None``: not registered).

        Bumps the key's version (superseding any scheduled events),
        fixes up current membership — emitting a delta stamped ``now``
        when it changed and ``emit`` is set — and schedules the
        still-future boundary crossings.
        """
        version = sub._versions.get(key, 0) + 1
        sub._versions[key] = version
        interval = self._interval(sub, motion)
        member = (
            interval is not None and interval[0] <= now <= interval[1]
        )
        was_member = key in sub._result
        if member != was_member:
            if member:
                sub._result.add(key)
            else:
                sub._result.remove(key)
            if emit:
                delta = SubscriptionDelta(
                    now, ENTER if member else EXIT, key, sub.sid
                )
                sub._deltas.append(delta)
                self._c_deltas.increment()
        if interval is None:
            return
        lo, hi = interval
        if member:
            if now <= hi < math.inf:
                self._push(hi, EXIT, sub.sid, key, version)
        elif lo > now:
            self._push(lo, ENTER, sub.sid, key, version)
            if hi < math.inf:
                self._push(hi, EXIT, sub.sid, key, version)

    def _push(
        self, time_: float, kind: str, sid: int, key: int, version: int
    ) -> None:
        heapq.heappush(
            self._heap,
            (time_, _RANK[kind], next(self._seq), sid, key, version, kind),
        )

    def _on_update(self, writes: WriteColumns) -> None:
        """Update-listener hook: refresh each subscription from the
        written rows alone, row by row in submission order, under one
        lock hold for the whole write set.  A loading subscription
        records the rows in its overlay instead.

        Called by the service in apply order (while it holds the
        shard locks — hence: never call back into the service from
        here).
        """
        with self._lock:
            if self._closed or not self._subs:
                return
            refreshed = 0
            for op, y0, v, t0 in zip(
                writes.ops, writes.y0.tolist(), writes.v.tolist(),
                writes.t0.tolist(),
            ):
                motion = (
                    None if type(op) is DeregisterOp
                    else LinearMotion1D(y0, v, t0)
                )
                for sub in self._subs.values():
                    if sub._overlay is not None:
                        sub._overlay[op.oid] = motion
                    else:
                        self._refresh(sub, op.oid, motion, self._now,
                                      emit=True)
                        refreshed += 1
            self._c_invalidations.increment(refreshed)
