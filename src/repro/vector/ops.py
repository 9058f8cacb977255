"""Query- and write-operation vocabulary shared by the batch paths.

These dataclasses are the wire format of one *read* or *write*
request: ``MotionDatabase.query_batch`` and
``ShardedMotionService.query_batch`` evaluate lists of query ops in one
kernel invocation, the versioned result cache keys on them, and
``apply_batch`` applies lists of write ops through one grouped pass per
shard.  They live here — below both the engine and the service layer —
so that ``repro.engine`` can accept them without importing
``repro.service`` (which imports the engine).

The query dataclasses are frozen, so an op hashes and compares by its
fields: the result cache keys its entries by the op itself.

This module must stay importable without ``numpy``: only the kernels
need the array stack, the vocabulary does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.errors import InvalidMotionError


@dataclass(frozen=True)
class Within:
    """MOR query: objects in ``[y1, y2]`` sometime in ``[t1, t2]``."""

    y1: float
    y2: float
    t1: float
    t2: float


@dataclass(frozen=True)
class SnapshotAt:
    """Instant query: objects in ``[y1, y2]`` exactly at ``t``."""

    y1: float
    y2: float
    t: float


@dataclass(frozen=True)
class Nearest:
    """The ``k`` objects nearest to ``y`` at time ``t``."""

    y: float
    t: float
    k: int = 1


@dataclass(frozen=True)
class ProximityPairs:
    """Unordered pairs coming within ``d`` during ``[t1, t2]``."""

    d: float
    t1: float
    t2: float


QueryOp = Union[Within, SnapshotAt, Nearest, ProximityPairs]


@dataclass(frozen=True, slots=True)
class RegisterOp:
    """Write op: admit a new object with motion ``y(t) = y0 + v·(t−t0)``."""

    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True, slots=True)
class ReportOp:
    """Write op: replace an existing object's motion parameters."""

    oid: int
    y0: float
    v: float
    t0: float


@dataclass(frozen=True, slots=True)
class DeregisterOp:
    """Write op: remove an object from the live population."""

    oid: int


WriteOp = Union[RegisterOp, ReportOp, DeregisterOp]

#: QueryOp class → the scalar service verb answering it (the metrics
#: span, the name a degraded answer's warning carries); its keys are
#: the op classes ``query_batch`` accepts.
QUERY_VERBS: Dict[type, str] = {
    Within: "within",
    SnapshotAt: "snapshot_at",
    Nearest: "nearest",
    ProximityPairs: "proximity_pairs",
}

#: WriteOp class → WAL/trace-dialect record kind; its keys are the op
#: classes a :class:`~repro.vector.columns.WriteColumns` (what update
#: listeners receive) accepts.
WRITE_KINDS: Dict[type, str] = {
    RegisterOp: "insert",
    ReportOp: "update",
    DeregisterOp: "delete",
}

#: WriteOp class → its code in a write set's int8 kind column
#: (:class:`~repro.vector.columns.WriteColumns`), what the engine groups
#: by and the service's plan reads.
_INSERT, _UPDATE, _DELETE = 0, 1, 2
_KIND_CODES: Dict[type, int] = {
    RegisterOp: _INSERT, ReportOp: _UPDATE, DeregisterOp: _DELETE,
}


def write_record(op: WriteOp) -> Tuple[str, Dict]:
    """``(kind, fields)`` of one write op in the portable trace dialect.

    The fields are exactly what a WAL record for the op carries (and
    what :func:`record_op` turns back into the op), so grouped
    per-shard appends can be built without consulting the op classes
    again.  Motion fields are the float64 values a shard's row holds
    for an admitted op (``float`` of any real the admission test
    accepts, a ``Fraction`` included, is that value), so a record
    encodes in every dialect and replays to the row.
    """
    if isinstance(op, (RegisterOp, ReportOp)):
        kind = WRITE_KINDS[type(op)]
        return kind, {"oid": op.oid, "y0": float(op.y0), "v": float(op.v),
                      "t0": float(op.t0)}
    if isinstance(op, DeregisterOp):
        return "delete", {"oid": op.oid}
    raise TypeError(f"unknown write operation {op!r}")


def record_op(record: Dict) -> WriteOp:
    """The write op of one trace-dialect record, :func:`write_record`'s
    inverse (extra keys such as ``seq`` are ignored; an unknown kind
    raises :class:`~repro.errors.InvalidMotionError`)."""
    kind = record.get("kind")
    if kind == "delete":
        return DeregisterOp(int(record["oid"]))
    if kind in ("insert", "update"):
        op = RegisterOp if kind == "insert" else ReportOp
        return op(int(record["oid"]), float(record["y0"]),
                  float(record["v"]), float(record["t0"]))
    raise InvalidMotionError(f"unknown log event kind {kind!r}")
