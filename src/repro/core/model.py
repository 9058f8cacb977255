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
import numbers
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence, Tuple

import numpy as np

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class MobileObject1D:
    """An identified object with its current 1-D motion information."""

    oid: int
    motion: LinearMotion1D


@dataclass(frozen=True)
class MobileObject2D:
    """An identified object with its current planar motion information."""

    oid: int
    motion: LinearMotion2D


def _oid_fits(oid: object) -> bool:
    return isinstance(oid, int) and -(2**63) <= oid < 2**63


def check_oid(oid: int) -> None:
    """Reject an object id the 64-bit signed oid columns (tree leaves,
    :class:`~repro.vector.columns.MotionColumns`) cannot store."""
    if not _oid_fits(oid):
        raise InvalidMotionError(
            f"object id {oid!r} is not an integer in [-2**63, 2**63)"
        )


def _as_float(x: numbers.Real) -> float:
    """The float64 a column stores for a real number: ``±inf`` for one
    beyond float64's range (a huge ``int`` or ``Fraction``), which every
    admission test refuses like the infinity it rounds to."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _field_value(x: object) -> float:
    """One motion field as a column holds it; NaN for a field that is
    not a real number (``"500"``, ``None``), which admission refuses."""
    if type(x) is float:
        return x
    return _as_float(x) if isinstance(x, numbers.Real) else math.nan


def _real_fields(motion: "LinearMotion1D") -> Tuple[float, float, float]:
    """``(y0, v, t0)`` as float64 values, or :class:`InvalidMotionError`
    for a field that is not a real number."""
    y0, v, t0 = motion.y0, motion.v, motion.t0
    # Plain floats at full speed; ints, numpy scalars and the like by
    # the numeric tower.
    if type(y0) is float and type(v) is float and type(t0) is float:
        return y0, v, t0
    if not all(isinstance(x, numbers.Real) for x in (y0, v, t0)):
        raise InvalidMotionError(
            f"motion fields must be real numbers, got y0={y0!r}, "
            f"v={v!r}, t0={t0!r}"
        )
    return _as_float(y0), _as_float(v), _as_float(t0)


def _float_column(values: Sequence) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    kinds = set(map(type, values))
    if kinds <= {float} or all(issubclass(k, numbers.Real) for k in kinds):
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:
            pass  # an int beyond float64: the row loop makes it ±inf
    return np.array([_field_value(x) for x in values], dtype=np.float64)


def motion_columns(
    oid: Sequence, y0: Sequence, v: Sequence, t0: Sequence
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``(oid, y0, v, t0)`` as the int64 / float64 columns the
    stores keep, converted once.

    A field is the float64 :meth:`MotionModel.check_admissible` tests
    (``±inf`` beyond float64's range).  A row that does not convert — an
    oid :func:`check_oid` refuses, a field that is not a real number —
    comes back with NaN fields (and oid 0), which
    :meth:`MotionModel.admit_mask` refuses.  Typed arrays pass through
    uncopied.
    """
    y0, v, t0 = (_float_column(column) for column in (y0, v, t0))
    if isinstance(oid, np.ndarray) and oid.dtype == np.int64:
        return oid, y0, v, t0
    if all(issubclass(kind, int) for kind in set(map(type, oid))):
        try:
            return np.array(oid, dtype=np.int64), y0, v, t0
        except OverflowError:
            pass
    fits = np.fromiter(map(_oid_fits, oid), bool, len(oid))
    column = np.array(
        [o if ok else 0 for o, ok in zip(oid, fits.tolist())], dtype=np.int64
    )
    refused = ~fits
    y0, v, t0 = (np.where(refused, math.nan, x) for x in (y0, v, t0))
    return column, y0, v, t0


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

    def moving_mask(self, v: np.ndarray) -> np.ndarray:
        """Column form of :meth:`is_moving` over float64 speeds."""
        speed = np.abs(v)
        return (self.v_min <= speed) & (speed <= self.v_max)

    def validate(self, motion: LinearMotion1D) -> None:
        """Reject motions outside the model (wrong band, off-terrain
        start, a field that is not a finite real number)."""
        y0, v, t0 = _real_fields(motion)
        if not self.v_min <= abs(v) <= self.v_max:
            raise InvalidMotionError(
                f"speed {v} outside [{self.v_min}, {self.v_max}] band"
            )
        self._check_start(y0, t0)

    def check_admissible(self, motion: LinearMotion1D, oid: int) -> None:
        """Reject a write no store can hold: over-speed, off-terrain,
        a field that is not a finite real number (``"500"`` included,
        and an ``int`` beyond float64's range), or an ``oid`` outside
        the stores' int64 columns (:func:`check_oid`).

        The admission test of the write paths, run before anything is
        mutated.  Unlike :meth:`validate` it lets slow motions
        (``|v| < v_min``) through — the hybrid's slow store takes them.
        The tests run on the float64 values the columns store.
        :meth:`admit_mask` is the same test over a whole batch; this
        one is its reference, and names the refusal of a row the mask
        refused.
        """
        check_oid(oid)
        y0, v, t0 = _real_fields(motion)
        if not abs(v) <= self.v_max:
            raise InvalidMotionError(f"speed {v} above v_max {self.v_max}")
        self._check_start(y0, t0)

    def admit_mask(
        self, oid: Sequence, y0: Sequence, v: Sequence, t0: Sequence
    ) -> np.ndarray:
        """Column form of :meth:`check_admissible`: row ``i`` is true
        exactly when ``check_admissible(LinearMotion1D(y0[i], v[i],
        t0[i]), oid[i])`` does not raise.

        Any sequences; a row that does not convert is refused
        (:func:`motion_columns`).  Over the typed columns that function
        returns, the mask is a few array passes.
        """
        _, y0, v, t0 = motion_columns(oid, y0, v, t0)
        return (
            (np.abs(v) <= self.v_max)
            & np.isfinite(t0)
            & (0.0 <= y0)
            & (y0 <= self.terrain.y_max)
        )

    def raise_refusal(self, motion: LinearMotion1D, oid: int) -> NoReturn:
        """Raise :meth:`check_admissible`'s exception for a row
        :meth:`admit_mask` refused — the scalar check names it."""
        self.check_admissible(motion, oid)
        raise InvalidMotionError(
            f"motion {motion!r} of object {oid!r} is not admissible"
        )

    def _check_start(self, y0: float, t0: float) -> None:
        # NaN compares false with everything, so every test here and in
        # the callers passes on a true comparison: a NaN speed or start
        # fails the band and terrain tests, and what is left to rule out
        # is a reference time no ordered store could place a key from.
        if not math.isfinite(t0):
            raise InvalidMotionError(f"non-finite reference time {t0}")
        if not self.terrain.contains(y0):
            raise InvalidMotionError(
                f"start location {y0} outside terrain "
                f"[0, {self.terrain.y_max}]"
            )
