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

Three subscription kinds are supported, each with a one-shot oracle
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
``proximity``
    unordered pairs closer than ``d`` at ``t`` — oracle
    ``service.proximity_pairs(d, t, t)``.  The pair's *relative*
    motion is linear too, so membership is its crossing window of the
    band ``[-d, d]``.

Intervals are closed on both ends, matching the inclusive comparisons
of :func:`repro.core.predicates.matches_1d`; an ``enter`` event at
time ``T`` fires once ``advance(t)`` reaches ``t >= T`` while an
``exit`` at ``T`` fires only for ``t > T``.

The manager observes writes through the update-listener hook of
:class:`~repro.service.service.ShardedMotionService` (also available
on :class:`~repro.engine.MotionDatabase` and the fault-tolerant
service).  Notifications are delivered in apply order, so the cached
motion table tracks exactly the acknowledged service state — which is
why subscriptions stay oracle-consistent across shard crashes and WAL
recovery: recovery reconciles replicas, it never changes acknowledged
state.  While any shard is down, subscriptions are flagged
``stale`` (the :class:`~repro.service.replication.PartialResult`
discipline lifted to standing queries) instead of raising.

Live rebalancing needs no special handling here for the same reason:
a two-phase migration moves an object *between shards* without ever
changing its acknowledged motion (double-writes carry the same values
to both participants, and cutover is a pure ownership flip), so the
listener stream the manager consumes is migration-transparent —
exactly one ``update`` per report, no spurious insert/delete at
cutover.  Subscriptions therefore stay oracle-consistent through a
migration storm; the rebalance tests check that with delta replay.

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

#: Delta kinds.
ENTER = "enter"
EXIT = "exit"

#: Subscription kinds.
KIND_SNAPSHOT = "snapshot"
KIND_WITHIN = "within"
KIND_PROXIMITY = "proximity"

# Heap tie-break at equal event time: enters apply before exits so an
# object touching a band boundary for an instant is reported present.
_RANK = {ENTER: 0, EXIT: 1}


@dataclass(frozen=True)
class SubscriptionDelta:
    """One incremental change to a standing result set.

    ``key`` is an object id for band subscriptions and an ordered pair
    ``(min_oid, max_oid)`` for proximity subscriptions.  ``time`` is
    the instant the change takes effect: a crossing time for events
    fired by :meth:`SubscriptionManager.advance`, the subscription
    clock for changes caused by a motion update.
    """

    time: float
    kind: str
    key: object
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
        "sid", "kind", "y1", "y2", "horizon", "d", "stale",
        "_result", "_deltas", "_versions",
    )

    def __init__(
        self,
        sid: int,
        kind: str,
        y1: Optional[float] = None,
        y2: Optional[float] = None,
        horizon: Optional[float] = None,
        d: Optional[float] = None,
    ) -> None:
        self.sid = sid
        self.kind = kind
        self.y1 = y1
        self.y2 = y2
        self.horizon = horizon
        self.d = d
        self.stale = False
        self._result: set = set()
        self._deltas: List[SubscriptionDelta] = []
        self._versions: Dict[object, int] = {}

    def describe(self) -> Dict[str, object]:
        """A plain-dict view (kind, parameters, size, staleness)."""
        params: Dict[str, object] = {}
        if self.kind == KIND_PROXIMITY:
            params["d"] = self.d
        else:
            params["y1"], params["y2"] = self.y1, self.y2
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
        Attach the manager *before* concurrent write traffic starts so
        the initial motion snapshot cannot race an unseen update.
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
        self._motions: Dict[int, LinearMotion1D] = {}
        # Listener first, snapshot second: an update landing in the
        # gap is then seen at least once (possibly twice — idempotent)
        # rather than never.
        service.attach_update_listener(self._on_update)
        snapshot = dict(service.motion_snapshot())
        with self._lock:
            snapshot.update(self._motions)  # listener-delivered wins
            self._motions = snapshot
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

    def subscribe_proximity(self, d: float) -> int:
        """Standing distance join: unordered pairs within ``d`` now.

        Note the cost model: a proximity subscription tracks one
        membership interval per object *pair*, so subscribing is
        O(n^2) in the population — fine for the simulator scales here,
        but the quadratic is real.
        """
        if d < 0:
            raise InvalidQueryError(f"distance must be >= 0, got {d}")
        return self._subscribe(KIND_PROXIMITY, d=d)

    def _subscribe(self, kind: str, **params) -> int:
        y1, y2 = params.get("y1"), params.get("y2")
        if y1 is not None and y1 > y2:
            raise InvalidQueryError(f"empty band [{y1}, {y2}]")
        with self._lock:
            sid = next(self._next_sid)
            sub = Subscription(sid, kind, **params)
            self._subs[sid] = sub
            # The one full evaluation this subscription ever needs:
            # every key's membership interval, derived in closed form.
            for key in self._keys(sub):
                self._refresh_key(sub, key, self._now, emit=False)
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
                "tracked_objects": len(self._motions),
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
            if t < self._now:
                raise InvalidQueryError(
                    f"advance({t}) would move time backwards from "
                    f"{self._now}"
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
            y1, y2, horizon, d = sub.y1, sub.y2, sub.horizon, sub.d
            now = self._now
        self._c_naive.increment()
        if kind == KIND_SNAPSHOT:
            return self._service.snapshot_at(y1, y2, now)
        if kind == KIND_WITHIN:
            return self._service.within(y1, y2, now, now + horizon)
        return self._service.proximity_pairs(d, now, now)

    # -- internals ---------------------------------------------------------------

    def _require(self, sid: int) -> Subscription:
        sub = self._subs.get(sid)
        if sub is None:
            raise ObjectNotFoundError(f"no subscription with id {sid}")
        return sub

    def _keys(self, sub: Subscription) -> List[object]:
        if sub.kind != KIND_PROXIMITY:
            return list(self._motions)
        oids = sorted(self._motions)
        return [
            (oids[i], oids[j])
            for i in range(len(oids))
            for j in range(i + 1, len(oids))
        ]

    def _interval(
        self, sub: Subscription, key: object
    ) -> Optional[Tuple[float, float]]:
        """The closed time interval during which ``key`` satisfies the
        subscription, or ``None`` if it never does.

        Linear motion crosses a band at most once, so one interval
        captures the whole future (and past) — the closed-form root
        that makes event-driven maintenance possible.
        """
        if sub.kind == KIND_PROXIMITY:
            a, b = key
            ma = self._motions.get(a)
            mb = self._motions.get(b)
            if ma is None or mb is None:
                return None
            # The pair's gap is itself linear: relative intercept and
            # velocity, proximity = the relative track inside [-d, d].
            c0 = (ma.y0 - ma.v * ma.t0) - (mb.y0 - mb.v * mb.t0)
            relative = LinearMotion1D(c0, ma.v - mb.v, 0.0)
            return relative.time_interval_in_range(-sub.d, sub.d)
        motion = self._motions.get(key)
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

    def _refresh_key(
        self, sub: Subscription, key: object, now: float, emit: bool
    ) -> None:
        """Re-derive one key's membership and future events.

        Bumps the key's version (superseding any scheduled events),
        fixes up current membership — emitting a delta stamped ``now``
        when it changed and ``emit`` is set — and schedules the
        still-future boundary crossings.
        """
        version = sub._versions.get(key, 0) + 1
        sub._versions[key] = version
        interval = self._interval(sub, key)
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
        self, time_: float, kind: str, sid: int, key: object, version: int
    ) -> None:
        heapq.heappush(
            self._heap,
            (time_, _RANK[kind], next(self._seq), sid, key, version, kind),
        )

    def _on_update(
        self, kind: str, oid: int, motion: Optional[LinearMotion1D]
    ) -> None:
        """Update-listener hook: invalidate only what ``oid`` touches.

        Called by the service in apply order (while it holds the
        owning shard's locks — hence: never call back into the service
        from here).
        """
        with self._lock:
            if self._closed:
                return
            if kind == "delete":
                self._motions.pop(oid, None)
            else:
                self._motions[oid] = motion
            for sub in self._subs.values():
                if sub.kind == KIND_PROXIMITY:
                    keys: List[object] = [
                        (oid, other) if oid < other else (other, oid)
                        for other in self._motions
                        if other != oid
                    ]
                else:
                    keys = [oid]
                for key in keys:
                    self._refresh_key(sub, key, self._now, emit=True)
                self._c_invalidations.increment(len(keys))
