"""Domain model: terrains, linear motions and mobile objects.

The paper models each mobile object as a point moving with constant
velocity: an object that started from location ``y0`` at time ``t0``
with velocity ``v`` is at ``y0 + v * (t - t0)`` at any later time ``t``
(section 2).  Objects are responsible for issuing an update whenever
their speed or direction changes, and whenever they reach the terrain
border (where they are deleted or reflected); between updates, the
database extrapolates along the stored linear motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import InvalidMotionError


@dataclass(frozen=True)
class Terrain1D:
    """The finite 1-D terrain ``[0, y_max]`` objects move on."""

    y_max: float

    def __post_init__(self) -> None:
        if self.y_max <= 0:
            raise InvalidMotionError(f"y_max must be positive, got {self.y_max}")

    def contains(self, y: float) -> bool:
        return 0.0 <= y <= self.y_max


@dataclass(frozen=True)
class Terrain2D:
    """The finite 2-D terrain ``[0, x_max] x [0, y_max]``."""

    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= 0 or self.y_max <= 0:
            raise InvalidMotionError(
                f"terrain extents must be positive, got ({self.x_max}, {self.y_max})"
            )

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.x_max and 0.0 <= y <= self.y_max


@dataclass(frozen=True)
class LinearMotion1D:
    """Constant-velocity 1-D motion: ``y(t) = y0 + v * (t - t0)``.

    ``t0`` is the time of the object's last update, i.e. the instant the
    motion information became valid.
    """

    y0: float
    v: float
    t0: float = 0.0

    def position(self, t: float) -> float:
        """Location at absolute time ``t`` (extrapolation is allowed)."""
        return self.y0 + self.v * (t - self.t0)

    def time_at(self, y: float) -> float:
        """Absolute time the trajectory crosses location ``y``.

        Raises :class:`InvalidMotionError` for a stationary object that
        never reaches ``y``.
        """
        if self.v == 0:
            raise InvalidMotionError(
                "a stationary object has no crossing time for other locations"
            )
        return self.t0 + (y - self.y0) / self.v

    def time_interval_in_range(
        self, lo: float, hi: float
    ) -> Optional[Tuple[float, float]]:
        """Times during which the object lies inside ``[lo, hi]``.

        Returns a closed interval (possibly unbounded for ``v == 0``,
        encoded with ``math.inf``), or ``None`` if the trajectory never
        enters the range.
        """
        if lo > hi:
            raise InvalidMotionError(f"empty location range [{lo}, {hi}]")
        if self.v == 0:
            if lo <= self.y0 <= hi:
                return (-math.inf, math.inf)
            return None
        t_lo = self.time_at(lo)
        t_hi = self.time_at(hi)
        if t_lo > t_hi:
            t_lo, t_hi = t_hi, t_lo
        return (t_lo, t_hi)


@dataclass(frozen=True)
class LinearMotion2D:
    """Constant-velocity planar motion with independent x and y components."""

    x0: float
    y0: float
    vx: float
    vy: float
    t0: float = 0.0

    def position(self, t: float) -> Tuple[float, float]:
        dt = t - self.t0
        return (self.x0 + self.vx * dt, self.y0 + self.vy * dt)

    @property
    def x_motion(self) -> LinearMotion1D:
        """Projection on the x-axis (used by per-axis decomposition, §4.2)."""
        return LinearMotion1D(self.x0, self.vx, self.t0)

    @property
    def y_motion(self) -> LinearMotion1D:
        """Projection on the y-axis."""
        return LinearMotion1D(self.y0, self.vy, self.t0)

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass(frozen=True)
class MobileObject1D:
    """An identified object with its current 1-D motion information."""

    oid: int
    motion: LinearMotion1D


@dataclass(frozen=True)
class MobileObject2D:
    """An identified object with its current planar motion information."""

    oid: int
    motion: LinearMotion2D


def check_oid(oid: int) -> None:
    """Reject an object id the 64-bit signed oid columns (tree leaves,
    :class:`~repro.vector.columns.MotionColumns`) cannot store."""
    if not isinstance(oid, int) or not -(2**63) <= oid < 2**63:
        raise InvalidMotionError(
            f"object id {oid!r} is not an integer in [-2**63, 2**63)"
        )


@dataclass(frozen=True)
class MotionModel:
    """Global model parameters shared by the paper's methods.

    The paper partitions objects into "slow" (``|v| < v_min``, handled by
    the restricted MOR1 structure of §3.6) and "moving" objects with
    ``v_min <= |v| <= v_max``.  The ratio ``y_max / v_min`` defines the
    rotation period ``T_period`` after which every moving object must
    have issued at least one update (§3.2).
    """

    terrain: Terrain1D
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not 0 < self.v_min <= self.v_max:
            raise InvalidMotionError(
                f"need 0 < v_min <= v_max, got ({self.v_min}, {self.v_max})"
            )

    @property
    def t_period(self) -> float:
        """Maximum time between forced updates: ``y_max / v_min``."""
        return self.terrain.y_max / self.v_min

    def is_moving(self, motion: LinearMotion1D) -> bool:
        """True when the motion falls in the "moving objects" speed band."""
        return self.v_min <= abs(motion.v) <= self.v_max

    def validate(self, motion: LinearMotion1D) -> None:
        """Reject motions outside the model (wrong band, off-terrain
        start, a non-finite field)."""
        if not self.is_moving(motion):
            raise InvalidMotionError(
                f"speed {motion.v} outside [{self.v_min}, {self.v_max}] band"
            )
        self._check_start(motion)

    def check_admissible(self, motion: LinearMotion1D, oid: int) -> None:
        """Reject a write no store can hold: over-speed, off-terrain,
        a non-finite field, or an ``oid`` outside the stores' int64
        columns (:func:`check_oid`).

        The admission test of the write paths, run before anything is
        mutated.  Unlike :meth:`validate` it lets slow motions
        (``|v| < v_min``) through — the hybrid's slow store takes them.
        """
        check_oid(oid)
        if not abs(motion.v) <= self.v_max:
            raise InvalidMotionError(
                f"speed {motion.v} above v_max {self.v_max}"
            )
        self._check_start(motion)

    def _check_start(self, motion: LinearMotion1D) -> None:
        # NaN compares false with everything, so every test here and in
        # the callers passes on a true comparison: a NaN speed or start
        # fails the band and terrain tests, and what is left to rule out
        # is a reference time no ordered store could place a key from.
        if not math.isfinite(motion.t0):
            raise InvalidMotionError(f"non-finite reference time {motion.t0}")
        if not self.terrain.contains(motion.y0):
            raise InvalidMotionError(
                f"start location {motion.y0} outside terrain "
                f"[0, {self.terrain.y_max}]"
            )
