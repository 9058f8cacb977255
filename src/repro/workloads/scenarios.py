"""Production-shaped scenario streams for the soak harness.

The paper's §5 study draws uniform motion; the ROADMAP north-star is a
service carrying real fleets, whose traffic is skewed, correlated and
bursty.  This module generates that shape as *service-level event
streams* — ordered ``register`` / ``report`` / ``deregister`` events a
driver replays against any :class:`~repro.service.ShardedMotionService`
implementation:

* :class:`CityScenario` — vehicles on a route network (built from
  :func:`~repro.workloads.route_workload.grid_network`), flattened onto
  one global arc-length axis so the 1-D service can carry it.  Rush
  hour sweeps a direction bias sinusoidally across the day; flash
  crowds periodically teleport a burst of vehicles to a hotspot
  junction (a mass re-route), and queries concentrate there.
* :class:`GridScenario` — every position and speed is an integer, the
  regime of "Range Reporting for Moving Points on a Grid" (PAPERS.md):
  with integer slopes the trajectories bucket exactly by velocity, and
  :class:`GridBucketOracle` answers MOR queries by a bisect over sorted
  integer intercepts per bucket — an independent grid-exploiting
  baseline for differential checks.
* :class:`ConvoyScenario` — MOIST's school-tracking observation: real
  fleets move in correlated convoys.  Each convoy shares a velocity
  band; members jitter within a bounded fraction of the model's speed
  range, defect between convoys, and whole convoys drift their base
  speed over time.
* :class:`AdversarialSkewScenario` — the worst case for velocity
  sharding and the dual transform at once: every speed inside a single
  :class:`~repro.service.sharding.VelocityRouter` band (one shard takes
  the whole write load) with pathological slope clustering (near-equal
  ``v``, so the Hough-X dual points collapse towards one line), and
  positions packed into a sliver of the terrain.
* :class:`UniformScenario` — the §5 uniform baseline in stream form,
  the control group for everything above.

Every stream owns two private :class:`random.Random` instances — one
for events, one for queries — seeded from the constructor seed, so the
event stream is byte-identical across runs and does not shift when the
driver asks for a different number of queries.
"""

from __future__ import annotations

import abc
import bisect
import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.model import LinearMotion1D
from repro.core.queries import MORQuery1D
from repro.workloads.generator import PAPER_V_MAX, PAPER_V_MIN
from repro.workloads.route_workload import grid_network

__all__ = [
    "AdversarialSkewScenario",
    "CityScenario",
    "ConvoyScenario",
    "GridBucketOracle",
    "GridScenario",
    "SCENARIO_NAMES",
    "ScenarioStream",
    "StreamEvent",
    "UniformScenario",
    "build_scenario",
]

#: Seed-mixing constant: the query stream must not perturb the event stream.
_QUERY_SEED_MIX = 0x9E3779B9


@dataclass(frozen=True)
class StreamEvent:
    """One service-level write: the wire format of the soak schedule."""

    kind: str  # "register" | "report" | "deregister"
    oid: int
    y0: float = 0.0
    v: float = 0.0
    t0: float = 0.0

    def as_tuple(self) -> Tuple[str, int, float, float, float]:
        """Canonical tuple form (trace digests hash over ``repr`` of it)."""
        return (self.kind, self.oid, self.y0, self.v, self.t0)


class ScenarioStream(abc.ABC):
    """A deterministic, tick-driven stream of service write events.

    Subclasses implement the motion policy (:meth:`_initial_motion`,
    :meth:`_update_motion`) and may add burst behaviour via
    :meth:`_extra_events`.  The base class owns the shared machinery:
    border reflection through an exit-time heap (``O(updates +
    crossings)`` per tick, the §5 scenario's trick), open-system churn,
    and the bookkeeping dict of every live object's current motion.
    """

    name = "abstract"

    def __init__(
        self,
        n: int,
        seed: int = 0,
        y_max: float = 1000.0,
        v_min: float = PAPER_V_MIN,
        v_max: float = PAPER_V_MAX,
        updates_per_tick: int = 0,
        arrivals_per_tick: int = 0,
        departures_per_tick: int = 0,
        query_horizon: float = 40.0,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least 1 object, got {n}")
        if not 0 < v_min <= v_max:
            raise ValueError(f"need 0 < v_min <= v_max, got {v_min}, {v_max}")
        self.n = n
        self.seed = seed
        self.y_max = float(y_max)
        self.v_min = float(v_min)
        self.v_max = float(v_max)
        self.updates_per_tick = updates_per_tick
        self.arrivals_per_tick = arrivals_per_tick
        self.departures_per_tick = departures_per_tick
        self.query_horizon = query_horizon
        self.rng = random.Random(seed)
        self.query_rng = random.Random(seed ^ _QUERY_SEED_MIX)
        #: oid -> current motion, as acknowledged by the generated stream.
        self.motions: Dict[int, LinearMotion1D] = {}
        self._next_oid = 0
        self._heap_seq = 0
        self._border_heap: List = []

    # -- model plumbing ----------------------------------------------------

    def model_params(self) -> Dict[str, float]:
        """Constructor kwargs for the service this stream targets."""
        return {"y_max": self.y_max, "v_min": self.v_min, "v_max": self.v_max}

    def _clamp(self, y: float, lo: float = 0.0, hi: Optional[float] = None) -> float:
        hi = self.y_max if hi is None else hi
        return min(max(y, lo), hi)

    def _position(self, oid: int, now: float) -> float:
        return self._clamp(self.motions[oid].position(now))

    # -- event emission (keeps self.motions + the border heap in sync) ----

    def _emit(self, kind: str, oid: int, motion: Optional[LinearMotion1D],
              out: List[StreamEvent]) -> None:
        if kind == "deregister":
            del self.motions[oid]
            out.append(StreamEvent("deregister", oid))
            return
        self.motions[oid] = motion
        self._push_border(oid, motion)
        out.append(StreamEvent(kind, oid, motion.y0, motion.v, motion.t0))

    # -- border reflection -------------------------------------------------

    def _bounds(self, oid: int) -> Tuple[float, float]:
        """The reflection walls for this object (subclasses narrow them)."""
        return (0.0, self.y_max)

    def _push_border(self, oid: int, motion: LinearMotion1D) -> None:
        lo, hi = self._bounds(oid)
        target = hi if motion.v > 0 else lo
        self._heap_seq += 1
        heapq.heappush(
            self._border_heap,
            (motion.time_at(target), self._heap_seq, oid, motion),
        )

    def _reflect_motion(self, oid: int, now: float) -> LinearMotion1D:
        lo, hi = self._bounds(oid)
        motion = self.motions[oid]
        y_now = self._clamp(motion.position(now), lo, hi)
        return LinearMotion1D(y_now, -motion.v, now)

    def _reflect_due(self, now: float, out: List[StreamEvent]) -> None:
        while self._border_heap and self._border_heap[0][0] <= now:
            _, _, oid, motion = heapq.heappop(self._border_heap)
            current = self.motions.get(oid)
            if current is None or current is not motion:
                continue  # stale: updated or departed since this was queued
            self._emit("report", oid, self._reflect_motion(oid, now), out)

    # -- the stream itself -------------------------------------------------

    def initial_events(self, t0: float = 0.0) -> List[StreamEvent]:
        """The ``n`` registration events that open the stream."""
        out: List[StreamEvent] = []
        for _ in range(self.n):
            oid = self._next_oid
            self._next_oid += 1
            self._emit("register", oid, self._initial_motion(oid, t0), out)
        return out

    def tick_events(self, now: float) -> List[StreamEvent]:
        """All write events of one tick, in their application order."""
        out: List[StreamEvent] = []
        self._reflect_due(now, out)
        live = sorted(self.motions)
        for _ in range(min(self.updates_per_tick, len(live))):
            oid = live[self.rng.randrange(len(live))]
            if oid not in self.motions:  # departed earlier this tick
                continue
            self._emit("report", oid, self._update_motion(oid, now), out)
        self._extra_events(now, out)
        for _ in range(self.arrivals_per_tick):
            oid = self._next_oid
            self._next_oid += 1
            self._emit("register", oid, self._arrival_motion(oid, now), out)
        live = sorted(self.motions)
        departures = min(self.departures_per_tick, max(0, len(live) - 1))
        for _ in range(departures):
            oid = live[self.rng.randrange(len(live))]
            while oid not in self.motions:
                oid = live[self.rng.randrange(len(live))]
            self._emit("deregister", oid, None, out)
        return out

    # -- queries (separate rng: never perturbs the event stream) -----------

    def random_query(self, now: float) -> MORQuery1D:
        """A future-window range query shaped like this scenario's load."""
        y1, y2 = self._query_range()
        t1 = now + self.query_rng.uniform(0.0, self.query_horizon)
        t2 = min(
            t1 + self.query_rng.uniform(0.0, self.query_horizon),
            now + self.query_horizon,
        )
        return MORQuery1D(y1, y2, t1, max(t1, t2))

    def _query_range(self) -> Tuple[float, float]:
        length = self.query_rng.uniform(0.0, self.y_max * 0.1)
        y1 = self.query_rng.uniform(0.0, self.y_max)
        return y1, min(y1 + length, self.y_max)

    # -- subclass hooks ----------------------------------------------------

    @abc.abstractmethod
    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        """Motion of a freshly registered object at stream start."""

    @abc.abstractmethod
    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        """A speed/direction change for a live object at ``now``."""

    def _arrival_motion(self, oid: int, now: float) -> LinearMotion1D:
        return self._initial_motion(oid, now)

    def _extra_events(self, now: float, out: List[StreamEvent]) -> None:
        """Scenario-specific bursts (flash crowds, defections)."""


class UniformScenario(ScenarioStream):
    """The §5 uniform baseline as a stream: the control group."""

    name = "uniform"

    def _random_speed(self) -> float:
        speed = self.rng.uniform(self.v_min, self.v_max)
        direction = 1 if self.rng.random() < 0.5 else -1
        return direction * speed

    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        return LinearMotion1D(
            self.rng.uniform(0.0, self.y_max), self._random_speed(), t0
        )

    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        return LinearMotion1D(self._position(oid, now), self._random_speed(), now)


class CityScenario(ScenarioStream):
    """Vehicles on a flattened route network with rush hour and flash
    crowds.

    The network comes from :func:`grid_network` (``lanes`` horizontal +
    ``lanes`` vertical highways); each route's arc-length interval is
    embedded end-to-end on one global 1-D axis (``y_max`` = total
    network length), so route membership is an interval containment and
    a re-route is a coordinate jump — exactly what a motion ``report``
    expresses.  Vehicles reflect at their *route's* ends, not the
    terrain's.

    Rush hour: the probability of travelling in the positive direction
    follows ``0.5 + amplitude·sin(2π·tick/period)`` — the morning wave
    flows one way, the evening wave back.

    Flash crowd: every ``flash_every`` ticks, ``flash_size`` vehicles
    re-route to within ``flash_radius`` of a hotspot junction, and
    (with probability ``hotspot_query_bias``) queries center there too.
    """

    name = "city"

    def __init__(
        self,
        n: int,
        seed: int = 0,
        lanes: int = 4,
        span: float = 1000.0,
        rush_period: int = 24,
        rush_amplitude: float = 0.35,
        flash_every: int = 6,
        flash_size: int = 0,
        flash_radius: float = 15.0,
        hotspot_query_bias: float = 0.5,
        **kwargs,
    ) -> None:
        self.routes = grid_network(lanes=lanes, span=span)
        self.route_offsets: List[float] = []
        total = 0.0
        for route in self.routes:
            self.route_offsets.append(total)
            total += route.length
        if not 0.0 <= rush_amplitude <= 0.5:
            raise ValueError(
                f"rush amplitude must be in [0, 0.5], got {rush_amplitude}"
            )
        super().__init__(n, seed=seed, y_max=total, **kwargs)
        self.rush_period = max(1, rush_period)
        self.rush_amplitude = rush_amplitude
        self.flash_every = flash_every
        self.flash_size = flash_size if flash_size else max(1, n // 50)
        self.flash_radius = flash_radius
        self.hotspot_query_bias = hotspot_query_bias
        #: oid -> route index on the global axis.
        self.route_of: Dict[int, int] = {}
        # Hotspots are junctions: horizontal lane i crosses vertical
        # lane j at arc length = the vertical lane's offset coordinate.
        self._hotspots = self._junction_coordinates(lanes, span)
        self._hotspot = self._hotspots[0] if self._hotspots else total / 2.0
        self.flash_crowds = 0

    def _junction_coordinates(self, lanes: int, span: float) -> List[float]:
        """Global coordinates of every grid junction on every route."""
        crossings = [span * (i + 0.5) / lanes for i in range(lanes)]
        coords = []
        for ridx, route in enumerate(self.routes):
            for s in crossings:
                if 0.0 <= s <= route.length:
                    coords.append(self.route_offsets[ridx] + s)
        return sorted(coords)

    def _bounds(self, oid: int) -> Tuple[float, float]:
        ridx = self.route_of[oid]
        lo = self.route_offsets[ridx]
        return (lo, lo + self.routes[ridx].length)

    def _direction(self, now: float) -> int:
        phase = (now % self.rush_period) / self.rush_period
        positive = 0.5 + self.rush_amplitude * math.sin(2 * math.pi * phase)
        return 1 if self.rng.random() < positive else -1

    def _speed(self, now: float) -> float:
        return self._direction(now) * self.rng.uniform(self.v_min, self.v_max)

    def _place_on_route(self, oid: int, ridx: int, s: float,
                        t0: float) -> LinearMotion1D:
        self.route_of[oid] = ridx
        lo, hi = self._bounds(oid)
        return LinearMotion1D(self._clamp(lo + s, lo, hi), self._speed(t0), t0)

    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        ridx = self.rng.randrange(len(self.routes))
        return self._place_on_route(
            oid, ridx, self.rng.uniform(0.0, self.routes[ridx].length), t0
        )

    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        # Mostly a speed/direction change in place; sometimes a re-route
        # (the vehicle turns onto a crossing highway at a junction).
        if self.rng.random() < 0.15:
            return self._initial_motion(oid, now)
        lo, hi = self._bounds(oid)
        y_now = self._clamp(self.motions[oid].position(now), lo, hi)
        return LinearMotion1D(y_now, self._speed(now), now)

    def _route_at(self, y: float) -> int:
        ridx = bisect.bisect_right(self.route_offsets, y) - 1
        return min(max(ridx, 0), len(self.routes) - 1)

    def _extra_events(self, now: float, out: List[StreamEvent]) -> None:
        if self.flash_every <= 0 or int(now) % self.flash_every != 0:
            return
        # A new incident site draws a crowd: mass re-route to near the
        # hotspot (position jumps are legal reports — GPS rejoins).
        self._hotspot = self._hotspots[
            self.rng.randrange(len(self._hotspots))
        ] if self._hotspots else self._hotspot
        self.flash_crowds += 1
        live = sorted(self.motions)
        for _ in range(min(self.flash_size, len(live))):
            oid = live[self.rng.randrange(len(live))]
            if oid not in self.motions:
                continue
            y = self._hotspot + self.rng.uniform(
                -self.flash_radius, self.flash_radius
            )
            y = self._clamp(y)
            ridx = self._route_at(y)
            lo, hi = self.route_offsets[ridx], (
                self.route_offsets[ridx] + self.routes[ridx].length
            )
            self.route_of[oid] = ridx
            motion = LinearMotion1D(
                self._clamp(y, lo, hi), self._speed(now), now
            )
            self._emit("report", oid, motion, out)

    def _emit(self, kind, oid, motion, out):  # route bookkeeping on churn
        if kind == "deregister":
            self.route_of.pop(oid, None)
        super()._emit(kind, oid, motion, out)

    def _query_range(self) -> Tuple[float, float]:
        if self.query_rng.random() < self.hotspot_query_bias:
            half = self.query_rng.uniform(2.0, self.flash_radius * 3)
            y1 = self._clamp(self._hotspot - half)
            return y1, self._clamp(self._hotspot + half)
        return super()._query_range()


class GridScenario(ScenarioStream):
    """Integer positions and integer velocities on ``[0, grid]``.

    The regime of "Range Reporting for Moving Points on a Grid": every
    trajectory is ``y(t) = c + v·t`` with integer intercept ``c`` and
    integer slope ``v``, ``1 <= |v| <= v_grid``.  All events are issued
    at integer ticks, so positions stay integral forever (reflection
    clamps to the integer walls).  :meth:`make_oracle` builds the
    grid-exploiting baseline over any motion map.
    """

    name = "grid"

    def __init__(
        self,
        n: int,
        seed: int = 0,
        grid: int = 1000,
        v_grid: int = 3,
        **kwargs,
    ) -> None:
        if grid < 2 or v_grid < 1:
            raise ValueError(f"need grid >= 2, v_grid >= 1; got {grid}, {v_grid}")
        kwargs.setdefault("query_horizon", 20.0)
        super().__init__(
            n, seed=seed, y_max=float(grid),
            v_min=1.0, v_max=float(v_grid), **kwargs,
        )
        self.grid = grid
        self.v_grid = v_grid

    def _random_speed(self) -> float:
        speed = self.rng.randint(1, self.v_grid)
        direction = 1 if self.rng.random() < 0.5 else -1
        return float(direction * speed)

    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        return LinearMotion1D(
            float(self.rng.randint(0, self.grid)), self._random_speed(), t0
        )

    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        return LinearMotion1D(self._position(oid, now), self._random_speed(), now)

    def _query_range(self) -> Tuple[float, float]:
        length = self.query_rng.randint(0, max(1, self.grid // 10))
        y1 = self.query_rng.randint(0, self.grid)
        return float(y1), float(min(y1 + length, self.grid))

    def random_query(self, now: float) -> MORQuery1D:
        y1, y2 = self._query_range()
        t1 = float(int(now) + self.query_rng.randint(0, int(self.query_horizon)))
        t2 = min(
            t1 + self.query_rng.randint(0, int(self.query_horizon)),
            now + self.query_horizon,
        )
        return MORQuery1D(y1, y2, t1, max(t1, t2))

    @staticmethod
    def make_oracle(motions: Dict[int, LinearMotion1D]) -> "GridBucketOracle":
        oracle = GridBucketOracle()
        for oid, motion in motions.items():
            oracle.insert(oid, motion)
        return oracle


class GridBucketOracle:
    """Grid-exploiting MOR baseline: bucket by integer slope, bisect on
    intercepts.

    With integer velocities there are only ``2·v_grid`` distinct slopes,
    and inside one bucket the swept-range predicate

        ``[min(y(t1), y(t2)), max(y(t1), y(t2))] ∩ [y1, y2] ≠ ∅``

    is a *contiguous* condition on the intercept ``c = y0 − v·t0``:
    ``y1 − max(v·t1, v·t2) <= c <= y2 − min(v·t1, v·t2)``.  Each bucket
    keeps its intercepts sorted, so a query costs ``O(V log n + k)``
    against brute force's ``O(n)`` — and, more importantly here, it is
    an *independently derived* answer for differential checking.
    """

    def __init__(self) -> None:
        #: v -> {oid: intercept}
        self._buckets: Dict[int, Dict[int, float]] = {}
        self._sorted: Dict[int, List[Tuple[float, int]]] = {}
        self._dirty: Set[int] = set()
        self._slope: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._slope)

    def insert(self, oid: int, motion: LinearMotion1D) -> None:
        v = int(round(motion.v))
        if v != motion.v:
            raise ValueError(f"grid oracle needs integer slopes, got {motion.v}")
        if oid in self._slope:
            self.delete(oid)
        c = motion.y0 - motion.v * motion.t0
        self._buckets.setdefault(v, {})[oid] = c
        self._slope[oid] = v
        self._dirty.add(v)

    update = insert

    def delete(self, oid: int) -> None:
        v = self._slope.pop(oid)
        del self._buckets[v][oid]
        self._dirty.add(v)

    def _intercepts(self, v: int) -> List[Tuple[float, int]]:
        if v in self._dirty:
            self._sorted[v] = sorted(
                (c, oid) for oid, c in self._buckets[v].items()
            )
            self._dirty.discard(v)
        return self._sorted.get(v, [])

    def within(self, y1: float, y2: float, t1: float, t2: float) -> Set[int]:
        answer: Set[int] = set()
        for v in self._buckets:
            a, b = v * t1, v * t2
            lo, hi = y1 - max(a, b), y2 - min(a, b)
            if lo > hi:
                continue
            entries = self._intercepts(v)
            start = bisect.bisect_left(entries, (lo, float("-inf")))
            stop = bisect.bisect_right(entries, (hi, float("inf")))
            answer.update(oid for _, oid in entries[start:stop])
        return answer

    def snapshot_at(self, y1: float, y2: float, t: float) -> Set[int]:
        return self.within(y1, y2, t, t)


class ConvoyScenario(ScenarioStream):
    """MOIST schools: convoys sharing a velocity band with bounded jitter.

    ``convoys`` groups are seeded with a direction, a base speed, and a
    spatial center; every member's speed is ``base ± jitter·(v_max −
    v_min)`` (clamped into the model band) and its position starts
    within ``spread`` of the center.  Per tick, some convoys drift
    their base speed (bounded so the jittered band never leaves the
    model's), members re-report around the *current* base, and
    ``defection_rate`` of updated members defect to another convoy —
    a position jump plus adoption of the new band.

    :meth:`convoy_of` and :meth:`convoy_band` expose the ground truth
    the property suite checks against.
    """

    name = "convoy"

    def __init__(
        self,
        n: int,
        seed: int = 0,
        convoys: int = 8,
        jitter: float = 0.05,
        spread: float = 25.0,
        drift: float = 0.02,
        defection_rate: float = 0.02,
        **kwargs,
    ) -> None:
        if not 0.0 < jitter < 0.5:
            raise ValueError(f"jitter must be in (0, 0.5), got {jitter}")
        super().__init__(n, seed=seed, **kwargs)
        self.convoys = max(1, convoys)
        self.jitter = jitter
        self.spread = spread
        self.drift = drift
        self.defection_rate = defection_rate
        band = self.v_max - self.v_min
        self._half = jitter * band
        self._drift_step = drift * band
        #: per convoy: [direction, base speed, center position]
        self._groups: List[List[float]] = []
        for _ in range(self.convoys):
            direction = 1.0 if self.rng.random() < 0.5 else -1.0
            base = self.rng.uniform(
                self.v_min + self._half, self.v_max - self._half
            )
            center = self.rng.uniform(0.0, self.y_max)
            self._groups.append([direction, base, center])
        self._member: Dict[int, int] = {}
        self.defections = 0

    # -- ground truth for the property suite -------------------------------

    def convoy_of(self, oid: int) -> int:
        return self._member[oid]

    def convoy_band(self, cid: int) -> Tuple[float, float]:
        """Current admissible |v| interval for members of convoy ``cid``."""
        base = self._groups[cid][1]
        return (base - self._half, base + self._half)

    # -- motion policy -----------------------------------------------------

    def _member_speed(self, cid: int) -> float:
        direction, base, _ = self._groups[cid]
        speed = base + self.rng.uniform(-self._half, self._half)
        return direction * speed

    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        cid = self.rng.randrange(self.convoys)
        self._member[oid] = cid
        center = self._groups[cid][2]
        y0 = self._clamp(center + self.rng.uniform(-self.spread, self.spread))
        return LinearMotion1D(y0, self._member_speed(cid), t0)

    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        cid = self._member[oid]
        if self.rng.random() < self.defection_rate and self.convoys > 1:
            new = self.rng.randrange(self.convoys - 1)
            cid = new if new < cid else new + 1
            self._member[oid] = cid
            self.defections += 1
            # The defector jumps to its new school's position band.
            center = self._groups[cid][2]
            y0 = self._clamp(
                center + self.rng.uniform(-self.spread, self.spread)
            )
            return LinearMotion1D(y0, self._member_speed(cid), now)
        return LinearMotion1D(
            self._position(oid, now), self._member_speed(cid), now
        )

    def _reflect_motion(self, oid: int, now: float) -> LinearMotion1D:
        # A member bouncing off the wall re-draws within its band (the
        # convoy direction is a bias, not an invariant, once walls hit).
        motion = self.motions[oid]
        cid = self._member[oid]
        _, base, _ = self._groups[cid]
        speed = base + self.rng.uniform(-self._half, self._half)
        sign = -1.0 if motion.v > 0 else 1.0
        return LinearMotion1D(self._position(oid, now), sign * speed, now)

    def tick_events(self, now: float) -> List[StreamEvent]:
        # Whole-school drift happens *before* any member reports, so
        # every event of this tick is drawn against the band that
        # :meth:`convoy_band` declares afterwards (bounded so that
        # base ± half never leaves the model's speed range).
        for group in self._groups:
            step = self.rng.uniform(-self._drift_step, self._drift_step)
            group[1] = min(
                max(group[1] + step, self.v_min + self._half),
                self.v_max - self._half,
            )
            # Centers ride along with the average motion.
            group[2] = self._clamp(group[2] + group[0] * group[1])
        return super().tick_events(now)

    def _emit(self, kind, oid, motion, out):
        if kind == "deregister":
            self._member.pop(oid, None)
        super()._emit(kind, oid, motion, out)


class AdversarialSkewScenario(ScenarioStream):
    """Worst-case skew: one router band, clustered slopes, packed space.

    ``target_shard`` picks which :class:`VelocityRouter` band receives
    *every* object (the band is intersected with the model's
    ``[v_min, v_max]``; if the intersection is empty the band holding
    ``v_max`` is used).  Within the band, speeds cluster around one
    pathological slope (spread ``slope_spread`` of the band width), so
    the Hough-X duals collapse towards a single line — the regime where
    bucketizing by velocity stops helping.  ``position_fraction``
    additionally packs all positions into the low end of the terrain.
    """

    name = "adversarial"

    def __init__(
        self,
        n: int,
        seed: int = 0,
        shards: int = 4,
        target_shard: int = 0,
        slope_spread: float = 0.05,
        position_fraction: float = 0.02,
        **kwargs,
    ) -> None:
        super().__init__(n, seed=seed, **kwargs)
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self.shards = shards
        width = self.v_max / shards
        lo = max(target_shard * width, self.v_min)
        hi = min((target_shard + 1) * width, self.v_max)
        if lo >= hi:  # band misses the model range; take the top band
            target_shard = shards - 1
            lo = max(target_shard * width, self.v_min)
            hi = self.v_max
        self.target_shard = target_shard
        #: the |v| interval every object lives in (one router band).
        self.band = (lo, hi)
        centre = (lo + hi) / 2.0
        half = (hi - lo) / 2.0 * min(max(slope_spread, 0.0), 1.0)
        #: the pathological slope cluster inside the band.
        self.cluster = (centre - half, centre + half)
        self.position_fraction = min(max(position_fraction, 1e-4), 1.0)

    def _skewed_speed(self) -> float:
        speed = self.rng.uniform(*self.cluster)
        direction = 1 if self.rng.random() < 0.5 else -1
        return direction * speed

    def _skewed_position(self) -> float:
        return self.rng.uniform(0.0, self.y_max * self.position_fraction)

    def _initial_motion(self, oid: int, t0: float) -> LinearMotion1D:
        return LinearMotion1D(self._skewed_position(), self._skewed_speed(), t0)

    def _update_motion(self, oid: int, now: float) -> LinearMotion1D:
        return LinearMotion1D(self._position(oid, now), self._skewed_speed(), now)

    def _query_range(self) -> Tuple[float, float]:
        # Queries hammer the packed sliver too.
        hot = self.y_max * self.position_fraction
        y1 = self.query_rng.uniform(0.0, hot)
        return y1, min(y1 + self.query_rng.uniform(0.0, hot), self.y_max)


SCENARIO_NAMES: Tuple[str, ...] = (
    "uniform", "city", "grid", "convoy", "adversarial"
)


def build_scenario(
    name: str,
    n: int,
    seed: int = 0,
    updates_per_tick: Optional[int] = None,
    arrivals_per_tick: int = 0,
    departures_per_tick: int = 0,
    shards: int = 4,
    **kwargs,
) -> ScenarioStream:
    """Factory: one canonical instance of each named scenario.

    ``updates_per_tick`` defaults to 2% of ``n`` (the §5 study's 200
    updates per tick at ``n = 10 000``).
    """
    updates = max(1, n // 50) if updates_per_tick is None else updates_per_tick
    common = dict(
        n=n, seed=seed, updates_per_tick=updates,
        arrivals_per_tick=arrivals_per_tick,
        departures_per_tick=departures_per_tick,
        **kwargs,
    )
    if name == "uniform":
        return UniformScenario(**common)
    if name == "city":
        return CityScenario(**common)
    if name == "grid":
        return GridScenario(**common)
    if name == "convoy":
        return ConvoyScenario(**common)
    if name == "adversarial":
        return AdversarialSkewScenario(shards=shards, **common)
    raise ValueError(
        f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}"
    )
