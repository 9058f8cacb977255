"""Shard-routing policies for the sharded service.

The scaling move for moving-object indexes (MOIST; distributed
continuous-range-query processing) is to partition the object
population across ``k`` independent single-node indexes and fan
queries out.  Which objects land together is the routing policy:

* :class:`HashRouter` — stable hash partitioning by object id.  Every
  shard sees the same motion mix, load balances statistically, and an
  object never migrates (its id never changes), so updates stay
  single-shard.
* :class:`BandRouter` / :class:`VelocityRouter` — partition by speed
  band, the velocity/speed-partitioning idea: each shard's population
  has a narrow ``[v_lo, v_hi]``, which tightens that shard's
  dual-transform bounding regions (the paper's §3.5 rectangles shrink
  with the speed band).  The routed shard depends on the *motion*, so
  a speed-change update can move the object between shards; the
  service's write plan handles that as a cross-group move.  Band edges
  are **mutable**: the rebalance controller re-cuts them against the
  live velocity histogram (epoch-numbered, so replicas and recovery
  agree on which layout is newest).

Routers are deterministic pure functions of (oid, motion, band
epoch) — the differential test harness relies on replaying the same
route decisions across runs.  Each has a column form,
:meth:`ShardRouter.route_many`, that routes a whole write batch in one
pass and equals :meth:`ShardRouter.route` row for row.

Routing answers "where *should* this object live"; the service's
catalog answers "where does it live *right now*".  The two differ
after a band re-cut until the service's ``rehome`` moves the
displaced objects (or their next reports do).
"""

from __future__ import annotations

import abc
import bisect
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.model import LinearMotion1D

#: Knuth's multiplicative-hash constant (2^32 / phi), for id mixing.
_FIB_MIX = 2654435761
_MASK_32 = 0xFFFFFFFF


def mix_oid(oid: int) -> int:
    """Deterministic 32-bit mix of an object id.

    Plain ``oid % k`` clusters consecutive ids onto the same shard for
    small strides; Fibonacci mixing spreads them.  Python's ``hash`` is
    identity on small ints, so it is mixed explicitly here.
    """
    x = (oid * _FIB_MIX) & _MASK_32
    x ^= x >> 16
    return x


def mix_oids(oid: np.ndarray) -> np.ndarray:
    """:func:`mix_oid` of an int64 column, in uint64 arithmetic: the
    low 32 bits of a product depend only on the low 32 bits of its
    factors, and two's complement gives a negative oid the low bits
    Python's unbounded ``&`` sees, so every row equals the scalar mix."""
    x = oid.astype(np.int64, copy=False).view(np.uint64)
    x = x * np.uint64(_FIB_MIX) & np.uint64(_MASK_32)
    return x ^ (x >> np.uint64(16))


class ShardRouter(abc.ABC):
    """Maps an object (id + motion) to one of ``k`` shards."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self.shards = shards

    @abc.abstractmethod
    def route(self, oid: int, motion: LinearMotion1D) -> int:
        """The shard (``0 <= shard < shards``) that owns this object."""

    @abc.abstractmethod
    def route_many(self, oid: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Column form of :meth:`route` over a batch's int64 oids and
        float64 speeds: row ``i`` is ``route(oid[i], motion)`` for any
        motion with speed ``v[i]`` (a route reads no other field)."""

    @property
    def motion_sensitive(self) -> bool:
        """True when an update can change the routed shard."""
        return False


class HashRouter(ShardRouter):
    """Stable hash partitioning by object id (the default policy)."""

    name = "hash"

    def route(self, oid: int, motion: LinearMotion1D) -> int:
        return mix_oid(oid) % self.shards

    def route_many(self, oid: np.ndarray, v: np.ndarray) -> np.ndarray:
        return mix_oids(oid) % np.uint64(self.shards)


class BandRouter(ShardRouter):
    """Partition by speed band over *mutable* edges.

    Shard ``i`` owns speeds ``|v|`` in ``[edges[i-1], edges[i])``
    (half-open; the last band is closed above by clamping, so a speed
    at or beyond ``v_max`` still routes).  Edges default to an even
    split of ``[0, v_max]`` and can be replaced wholesale with
    :meth:`set_bands` — the rebalance controller's lever.  Each
    replacement carries a strictly increasing *band epoch* so every
    holder of the layout (live replicas, WAL recovery) can tell which
    cut is newest.
    """

    name = "band"

    def __init__(
        self,
        shards: int,
        v_max: float,
        edges: Optional[Iterable[float]] = None,
    ) -> None:
        super().__init__(shards)
        if v_max <= 0:
            raise ValueError(f"v_max must be positive, got {v_max}")
        self.v_max = v_max
        self.epoch = 0
        if edges is None:
            self._edges: Tuple[float, ...] = tuple(
                v_max * i / shards for i in range(1, shards)
            )
        else:
            self._edges = self._validated(edges)

    def _validated(self, edges: Iterable[float]) -> Tuple[float, ...]:
        cut = tuple(float(edge) for edge in edges)
        if len(cut) != self.shards - 1:
            raise ValueError(
                f"{self.shards} bands need {self.shards - 1} interior "
                f"edges, got {len(cut)}"
            )
        previous = 0.0
        for edge in cut:
            if not previous < edge < self.v_max:
                raise ValueError(
                    f"band edges must be strictly increasing inside "
                    f"(0, {self.v_max}), got {cut}"
                )
            previous = edge
        return cut

    def band_edges(self) -> Tuple[float, ...]:
        """The current interior band boundaries (``shards - 1`` of them)."""
        return self._edges

    def band_of(self, speed: float) -> int:
        """The band index owning speed magnitude ``|speed|``."""
        return min(
            bisect.bisect_right(self._edges, abs(speed)), self.shards - 1
        )

    def route(self, oid: int, motion: LinearMotion1D) -> int:
        return self.band_of(motion.v)

    def route_many(self, oid: np.ndarray, v: np.ndarray) -> np.ndarray:
        edges = np.array(self._edges, dtype=np.float64)
        return np.minimum(
            np.searchsorted(edges, np.abs(v), "right"), self.shards - 1
        )

    def set_bands(self, edges: Iterable[float], epoch: int) -> None:
        """Install a new band layout under a strictly newer epoch.

        Validation happens before any state changes, so a rejected cut
        leaves the previous layout fully intact.
        """
        cut = self._validated(edges)
        if epoch <= self.epoch:
            raise ValueError(
                f"band epoch {epoch} is not newer than the installed "
                f"epoch {self.epoch}"
            )
        self._edges = cut
        self.epoch = epoch

    @property
    def motion_sensitive(self) -> bool:
        return True


class VelocityRouter(BandRouter):
    """Even-width speed bands over ``[0, v_max]`` (the historical
    velocity-partitioning default).

    Identical to :class:`BandRouter` with the default even cut —
    including the mutable edges, so a ``router="velocity"`` service is
    rebalance-capable out of the box.
    """

    name = "velocity"

    def __init__(self, shards: int, v_max: float) -> None:
        super().__init__(shards, v_max)
