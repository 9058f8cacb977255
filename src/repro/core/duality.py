"""Dual transforms and query geometry (sections 3.1-3.2 of the paper).

A trajectory ``y(t) = v*t + a`` in the primal time-location plane maps to:

* the **Hough-X** dual point ``(v, a)`` — velocity and intercept; the MOR
  query becomes the wedge-shaped convex polygon of Proposition 1;
* the **Hough-Y** dual point ``(n, b) = (1/v, -a/v)`` — inverse velocity
  and the time the trajectory crosses a fixed horizon ``y = y_r``; the
  MOR query becomes a slab that is over-approximated by a ``b``-range
  with bounded extra area ``E`` (equations (1)-(2)).

All functions that involve a velocity sign are written for the
*positive-velocity* population; negative-velocity objects are handled by
reflecting the terrain (``y -> y_max - y``) which flips the velocity
sign, so one code path serves both (see :func:`reflect_motion`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.model import LinearMotion1D, LinearMotion2D, MotionModel
from repro.core.queries import MORQuery1D
from repro.errors import InvalidMotionError


# ---------------------------------------------------------------------------
# Convex linear-constraint regions (the query shape in the dual plane)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfPlane:
    """The constraint ``cx * x + cy * y <= rhs``."""

    cx: float
    cy: float
    rhs: float

    def contains(self, x: float, y: float, eps: float = 1e-9) -> bool:
        return self.cx * x + self.cy * y <= self.rhs + eps


@dataclass(frozen=True)
class ConvexRegion:
    """Intersection of half-planes: a linear-constraint query region.

    This is the query object handed to point access methods searched with
    the Goldstein et al. linear-constraint procedure (§3.5.1): tree nodes
    are pruned when their bounding rectangle lies entirely outside some
    half-plane.
    """

    constraints: Tuple[HalfPlane, ...]

    def contains(self, x: float, y: float) -> bool:
        return all(hp.contains(x, y) for hp in self.constraints)

    def rect_outside(
        self, lo_x: float, lo_y: float, hi_x: float, hi_y: float
    ) -> bool:
        """True when the rectangle is certainly disjoint from the region.

        A rectangle is outside a half-plane iff its most-favourable corner
        violates the constraint; being outside any single half-plane puts
        it outside the whole intersection.
        """
        for hp in self.constraints:
            best_x = lo_x if hp.cx > 0 else hi_x
            best_y = lo_y if hp.cy > 0 else hi_y
            if not hp.contains(best_x, best_y):
                return True
        return False

    def rect_inside(
        self, lo_x: float, lo_y: float, hi_x: float, hi_y: float
    ) -> bool:
        """True when the rectangle lies entirely inside the region.

        Exact for a convex region: all four corners inside suffices.
        """
        corners = (
            (lo_x, lo_y),
            (lo_x, hi_y),
            (hi_x, lo_y),
            (hi_x, hi_y),
        )
        return all(self.contains(cx, cy) for cx, cy in corners)

    def may_intersect_rect(
        self, lo_x: float, lo_y: float, hi_x: float, hi_y: float
    ) -> bool:
        """Conservative overlap test used during tree descent."""
        return not self.rect_outside(lo_x, lo_y, hi_x, hi_y)


# ---------------------------------------------------------------------------
# Hough-X: (velocity, intercept)
# ---------------------------------------------------------------------------


def hough_x(motion: LinearMotion1D, t_ref: float = 0.0) -> Tuple[float, float]:
    """Map a motion to its Hough-X dual point relative to time ``t_ref``.

    Returns ``(v, a)`` with ``a`` the location at ``t_ref``, so that
    ``y(t) = a + v * (t - t_ref)``.  The paper bounds intercepts by
    recomputing them against staggered reference lines (§3.2, the
    ``T_period`` rotation) — hence the explicit ``t_ref``.
    """
    return (motion.v, motion.position(t_ref))


def hough_x_2d(
    motion: LinearMotion2D, t_ref: float = 0.0
) -> Tuple[float, float, float, float]:
    """Map a planar motion to the 4-D dual point ``(vx, ax, vy, ay)`` (§4.2)."""
    vx, ax = hough_x(motion.x_motion, t_ref)
    vy, ay = hough_x(motion.y_motion, t_ref)
    return (vx, ax, vy, ay)


def mor_wedge(
    query: MORQuery1D,
    model: MotionModel,
    sign: int,
    t_ref: float = 0.0,
) -> ConvexRegion:
    """Proposition 1: the MOR query as a convex wedge in the Hough-X plane.

    ``sign`` selects the velocity population: ``+1`` builds the wedge for
    ``v in [v_min, v_max]``, ``-1`` for ``v in [-v_max, -v_min]``.  Times
    are shifted so intercepts are measured at ``t_ref``.

    The wedge is *exact*: a dual point of the matching sign lies inside
    the wedge iff the object satisfies the MOR query (a linear motion
    sweeps the closed interval between its endpoint locations).
    """
    t1 = query.t1 - t_ref
    t2 = query.t2 - t_ref
    if sign > 0:
        return ConvexRegion(
            (
                HalfPlane(-1.0, 0.0, -model.v_min),  # v >= v_min
                HalfPlane(1.0, 0.0, model.v_max),  # v <= v_max
                HalfPlane(-t2, -1.0, -query.y1),  # a + t2*v >= y1
                HalfPlane(t1, 1.0, query.y2),  # a + t1*v <= y2
            )
        )
    return ConvexRegion(
        (
            HalfPlane(1.0, 0.0, -model.v_min),  # v <= -v_min
            HalfPlane(-1.0, 0.0, model.v_max),  # v >= -v_max
            HalfPlane(-t1, -1.0, -query.y1),  # a + t1*v >= y1
            HalfPlane(t2, 1.0, query.y2),  # a + t2*v <= y2
        )
    )


# ---------------------------------------------------------------------------
# Hough-Y: (1/velocity, horizon-crossing time)
# ---------------------------------------------------------------------------


#: Relative slack of the Hough-Y comparisons, shared by the range scan
#: (:func:`hough_y_b_range`) and the filter behind it
#: (:func:`hough_y_matches`): what the filter would keep, the scan must
#: fetch.
_SLACK = 1e-9


def hough_y(motion: LinearMotion1D, y_r: float = 0.0) -> Tuple[float, float]:
    """Map a motion to its Hough-Y dual point relative to horizon ``y_r``.

    Returns ``(n, b)`` where ``n = 1/v`` and ``b`` is the absolute time
    the trajectory crosses the line ``y = y_r``.  Horizontal trajectories
    (``v == 0``) have no Hough-Y image; the paper excludes them from the
    "moving" population, and we raise accordingly.
    """
    if motion.v == 0:
        raise InvalidMotionError("Hough-Y is undefined for v == 0")
    return (1.0 / motion.v, motion.time_at(y_r))


def hough_y_b_range(
    query: MORQuery1D,
    y_r: float,
    v_min: float,
    v_max: float,
) -> Tuple[float, float]:
    """The rectangle approximation of the MOR query on the ``b`` axis.

    For *positive* velocities ``v in [v_min, v_max]`` the exact dual
    region is the slab ``t1 - (y2 - y_r)*n <= b <= t2 - (y1 - y_r)*n``
    with ``n in [1/v_max, 1/v_min]``.  The approximation replaces the
    slanted sides by the enclosing rectangle (Figure 4); because both
    bounds are linear in ``n`` the rectangle's ``b``-extent is attained
    at the slab's corners.

    Returns ``(b_lo, b_hi)``, widened by the relative slack
    :func:`hough_y_matches` allows; candidates found by a range search
    on ``b`` must still be filtered with their stored speed (the paper
    keeps the speed in each B+-tree record exactly for this).
    """
    if not 0 < v_min <= v_max:
        raise InvalidMotionError(
            f"need 0 < v_min <= v_max, got ({v_min}, {v_max})"
        )
    n_lo = 1.0 / v_max
    n_hi = 1.0 / v_min
    b_lo = min(
        query.t1 - (query.y2 - y_r) * n_lo,
        query.t1 - (query.y2 - y_r) * n_hi,
    )
    b_hi = max(
        query.t2 - (query.y1 - y_r) * n_lo,
        query.t2 - (query.y1 - y_r) * n_hi,
    )
    # The slack of hough_y_matches: a stored b is t0 + (y_r - y0)/v, not
    # t - (y - y_r)*(1/v), so a record the filter would keep can sit an
    # ulp outside the exact corner when its speed is v_min or v_max.
    return (
        b_lo - _SLACK * (1.0 + abs(b_lo) + abs(query.t1)),
        b_hi + _SLACK * (1.0 + abs(b_hi) + abs(query.t2)),
    )


def hough_y_matches(
    n: float,
    b: float,
    query: MORQuery1D,
    y_r: float,
) -> bool:
    """Exact membership test in the Hough-Y dual (positive velocities).

    Used to discard the false positives introduced by the rectangle
    approximation of :func:`hough_y_b_range`.  The comparisons carry a
    tiny relative slack: the dual arithmetic (division by ``v``,
    re-multiplication by ``n``) loses a few ulps against the primal
    predicate, and an object sitting exactly on the query boundary must
    not be dropped by roundoff (closed-interval semantics).
    """
    lhs_1 = b + (query.y1 - y_r) * n
    lhs_2 = b + (query.y2 - y_r) * n
    eps_1 = _SLACK * (1.0 + abs(lhs_1) + abs(query.t2))
    eps_2 = _SLACK * (1.0 + abs(lhs_2) + abs(query.t1))
    return lhs_1 <= query.t2 + eps_1 and lhs_2 >= query.t1 - eps_2


def approximation_area(
    v_min: float, v_max: float, y1: float, y2: float, y_r: float
) -> float:
    """Equation (1): the extra dual-plane area ``E`` of the approximation.

    ``E`` measures the expected wasted work (false positives fetched and
    then filtered) when the wedge is replaced by its bounding rectangle
    computed at observation horizon ``y_r``.
    """
    spread = (v_max - v_min) / (v_min * v_max)
    return 0.5 * spread * spread * (abs(y2 - y_r) + abs(y1 - y_r))


def approximation_area_bound(
    v_min: float, v_max: float, y_max: float, c: int
) -> float:
    """Equation (2): the worst-case ``E`` with ``c`` observation indices.

    Holds for queries no wider than a subterrain (``y2 - y1 <=
    y_max / c``) routed to the nearest observation horizon.
    """
    if c <= 0:
        raise ValueError(f"need at least one observation index, got c={c}")
    spread = (v_max - v_min) / (v_min * v_max)
    return 0.5 * spread * spread * (y_max / c)


def best_observation_horizon(
    query: MORQuery1D, horizons: Sequence[float]
) -> int:
    """Index of the horizon minimising ``|y2 - y_r| + |y1 - y_r|`` (§3.5.2)."""
    if not horizons:
        raise ValueError("no observation horizons configured")
    costs: List[float] = [
        abs(query.y2 - y_r) + abs(query.y1 - y_r) for y_r in horizons
    ]
    return costs.index(min(costs))


# ---------------------------------------------------------------------------
# Reflection: reduce the negative-velocity population to the positive one
# ---------------------------------------------------------------------------


def reflect_motion(motion: LinearMotion1D, y_max: float) -> LinearMotion1D:
    """Mirror a motion through the terrain midpoint: ``y -> y_max - y``.

    Reflecting maps velocity ``v`` to ``-v``, so the negative-velocity
    population becomes positive and can reuse the positive-sign Hough-Y
    machinery.  Reflection is an involution.
    """
    return LinearMotion1D(y_max - motion.y0, -motion.v, motion.t0)


def reflect_query(query: MORQuery1D, y_max: float) -> MORQuery1D:
    """Mirror a query's location range through the terrain midpoint."""
    return MORQuery1D(y_max - query.y2, y_max - query.y1, query.t1, query.t2)


def observation_horizons(y_max: float, c: int) -> List[float]:
    """The ``c`` equidistant observation horizons of §3.5.2.

    Horizon ``i`` sits at the *midpoint* of subterrain ``i``, i.e. at
    ``(i + 1/2) * y_max / c``.  Midpoint placement is what makes the
    equation (2) bound hold for every query narrower than a subterrain:
    the best horizon is then within ``y_max / (2c)`` of the query's
    midpoint, so ``|y2 - y_r| + |y1 - y_r| <= y_max / c`` everywhere —
    including queries hugging the terrain borders, where end-placed
    horizons would be up to twice as far.
    """
    if c <= 0:
        raise ValueError(f"need at least one observation index, got c={c}")
    return [(i + 0.5) * y_max / c for i in range(c)]


def speed_bands(v_min: float, v_max: float, ratio: float) -> List[float]:
    """Edges of the fewest geometric speed bands with ``v_hi/v_lo <= ratio``.

    §7's "cluster similarly moving objects", along the one axis the
    over-fetch of equation (1) depends on: within a band the spread of
    ``1/v`` — and with it the ``b``-range of :func:`hough_y_b_range` —
    is that of a model ``ratio`` wide, however wide ``[v_min, v_max]``
    is.  Returns ``k + 1`` edges from ``v_min`` to ``v_max``; a model no
    wider than ``ratio`` is one band.
    """
    if not 0 < v_min <= v_max:
        raise InvalidMotionError(
            f"need 0 < v_min <= v_max, got ({v_min}, {v_max})"
        )
    if not ratio > 1:
        raise ValueError(f"band ratio must exceed 1, got {ratio}")
    spread = v_max / v_min
    bands = 1
    # Not ceil(log(spread, ratio)): that lands one band high at exact powers.
    while ratio ** bands < spread:
        bands += 1
    return (
        [v_min]
        + [v_min * spread ** (j / bands) for j in range(1, bands)]
        + [v_max]
    )


def subterrain_bounds(y_max: float, c: int, i: int) -> Tuple[float, float]:
    """Location bounds of subterrain ``i`` (``0 <= i < c``)."""
    if not 0 <= i < c:
        raise ValueError(f"subterrain index {i} out of range for c={c}")
    width = y_max / c
    return (i * width, (i + 1) * width)


def subterrain_of(y: float, y_max: float, c: int) -> int:
    """Subterrain containing location ``y`` (clamped to the terrain)."""
    width = y_max / c
    idx = int(y // width)
    return min(max(idx, 0), c - 1)


def residence_interval(
    motion: LinearMotion1D,
    lo: float,
    hi: float,
    t_from: float,
    t_until: float = math.inf,
) -> Tuple[float, float] | None:
    """Clamped time interval the object spends inside ``[lo, hi]``.

    Returns the intersection of the motion's in-range interval with
    ``[t_from, t_until]`` or ``None`` when empty.  Used to populate the
    subterrain interval indexes of §3.5.2.
    """
    interval = motion.time_interval_in_range(lo, hi)
    if interval is None:
        return None
    t_lo, t_hi = interval
    t_lo = max(t_lo, t_from)
    t_hi = min(t_hi, t_until)
    if t_lo > t_hi:
        return None
    return (t_lo, t_hi)
