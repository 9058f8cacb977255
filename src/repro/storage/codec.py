"""The on-disk format of a shard WAL: record and checkpoint codecs.

Every payload :mod:`repro.storage` writes passes through this module;
the log (:mod:`repro.storage.log`) and the checkpoint store
(:mod:`repro.storage.checkpoint`) only frame, fsync and install bytes.

Records — one per log frame (:func:`encode_record` /
:func:`decode_record`)::

    kind            first byte   layout                             bytes
    insert          0x01         <BQqddd  tag, seq, oid, y0, v, t0    41
    update          0x02         <BQqddd                              41
    delete          0x03         <BQq     tag, seq, oid               17
    anything else   '{'          JSON object, sorted keys             var

"Anything else" is every record that carries more than a plain write:
today only ``bands``, which is rare, so it keeps the portable trace
dialect.  Logs written before the two-phase migration protocol was
retired also hold its fenced double-writes (a ``fence`` key) and
``migrate_*`` kinds; they decode the same way.

Checkpoints (:func:`encode_checkpoint` / :func:`decode_checkpoint`)::

    <BI       tag 0x04, header length h
    h bytes   JSON header {bands, history, n, now, seq}
    8n bytes  oid  int64    \\
    8n bytes  y0   float64   |  little-endian, one row per object,
    8n bytes  v    float64   |  in catalog (registration) order
    8n bytes  t0   float64  /

Old-format rule: both decoders dispatch on the payload's first byte,
and a JSON document always starts with ``{``.  Records and checkpoints
written before the binary format existed are read as JSON — an old
checkpoint's ``population`` string becomes columns on load — with no
version flag and no second reader.  Any other first byte, or a length
that does not match its tag, raises
:class:`~repro.errors.CorruptRecordError`: a CRC-valid frame is never
guessed at.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, NamedTuple, Tuple

import numpy as np

from repro.errors import CorruptRecordError

_INSERT, _UPDATE, _DELETE, _CHECKPOINT = 1, 2, 3, 4
_JSON = ord("{")

#: Motion records: tag, seq, oid, y0, v, t0.
MOTION_RECORD = struct.Struct("<BQqddd")
#: Delete records: tag, seq, oid.
DELETE_RECORD = struct.Struct("<BQq")
#: Checkpoint prefix: tag, JSON header length.
CHECKPOINT_PREFIX = struct.Struct("<BI")

_KIND_TAGS = {"insert": _INSERT, "update": _UPDATE, "delete": _DELETE}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}
#: Keys of a plain write record; any other key set is logged as JSON.
_FIELD_COUNT = {"insert": 6, "update": 6, "delete": 3}
#: Column dtypes, in file order.
_COLUMNS = (("oid", "<i8"), ("y0", "<f8"), ("v", "<f8"), ("t0", "<f8"))


class Population(NamedTuple):
    """A shard's objects as four aligned columns, in oid order."""

    oid: np.ndarray
    y0: np.ndarray
    v: np.ndarray
    t0: np.ndarray

    def rows(self) -> Iterator[Tuple[int, float, float, float]]:
        """``(oid, y0, v, t0)`` per object, as Python numbers."""
        return zip(*(column.tolist() for column in self))


def _json(document: Dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _json_object(blob: bytes) -> Dict:
    try:
        document = json.loads(blob)
    except ValueError as exc:  # includes UnicodeDecodeError
        raise CorruptRecordError(f"undecodable JSON payload: {exc}") from exc
    if not isinstance(document, dict):
        raise CorruptRecordError("JSON payload is not an object")
    return document


# -- records --------------------------------------------------------------------


def encode_record(record: Dict) -> bytes:
    """One log record's payload: fixed-width when it is a plain write
    whose fields fit the struct, JSON otherwise."""
    kind = record.get("kind")
    if _FIELD_COUNT.get(kind) == len(record):
        try:
            if kind == "delete":
                return DELETE_RECORD.pack(_DELETE, record["seq"], record["oid"])
            return MOTION_RECORD.pack(
                _KIND_TAGS[kind], record["seq"], record["oid"],
                record["y0"], record["v"], record["t0"],
            )
        except (KeyError, struct.error):
            pass  # an unusual key set or value: JSON holds anything
    return _json(record)


def decode_record(payload: bytes) -> Dict:
    """The record :func:`encode_record` wrote (JSON for old logs)."""
    tag = payload[0] if payload else None
    if tag == _JSON:
        return _json_object(payload)
    if tag in (_INSERT, _UPDATE) and len(payload) == MOTION_RECORD.size:
        _, seq, oid, y0, v, t0 = MOTION_RECORD.unpack(payload)
        return {"seq": seq, "kind": _TAG_KINDS[tag], "oid": oid,
                "y0": y0, "v": v, "t0": t0}
    if tag == _DELETE and len(payload) == DELETE_RECORD.size:
        _, seq, oid = DELETE_RECORD.unpack(payload)
        return {"seq": seq, "kind": "delete", "oid": oid}
    raise CorruptRecordError(
        f"log record with first byte {tag!r} and length {len(payload)} "
        "matches no record layout"
    )


# -- checkpoints ------------------------------------------------------------------


def encode_checkpoint(payload: Dict) -> bytes:
    """A checkpoint file's payload: JSON header plus columns when the
    payload's ``population`` is a :class:`Population`, plain JSON for
    any other document."""
    population = payload.get("population")
    if not isinstance(population, Population):
        return _json(payload)
    header = {key: value for key, value in payload.items()
              if key != "population"}
    header["n"] = len(population.oid)
    head = _json(header)
    parts = [CHECKPOINT_PREFIX.pack(_CHECKPOINT, len(head)), head]
    for column, (_, dtype) in zip(population, _COLUMNS):
        parts.append(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return b"".join(parts)


def decode_checkpoint(blob: bytes) -> Dict:
    """The payload :func:`encode_checkpoint` wrote; a pre-columns JSON
    checkpoint loads with its population string turned into columns.
    The columns are read-only views of ``blob``."""
    if blob[:1] == b"{":
        payload = _json_object(blob)
        if isinstance(payload.get("population"), str):
            payload["population"] = _population_from_json(
                payload["population"]
            )
        return payload
    if len(blob) < CHECKPOINT_PREFIX.size or blob[0] != _CHECKPOINT:
        raise CorruptRecordError(
            f"checkpoint with first byte {blob[:1]!r} matches no layout"
        )
    _, head_len = CHECKPOINT_PREFIX.unpack_from(blob)
    offset = CHECKPOINT_PREFIX.size + head_len
    payload = _json_object(blob[CHECKPOINT_PREFIX.size:offset])
    n = payload.pop("n", None)
    if not isinstance(n, int) or n < 0 or len(blob) != offset + 32 * n:
        raise CorruptRecordError(
            f"checkpoint of {len(blob)} bytes does not hold the {n!r} "
            "rows its header announces"
        )
    columns = []
    for _, dtype in _COLUMNS:
        columns.append(np.frombuffer(blob, dtype, n, offset))
        offset += 8 * n
    payload["population"] = Population(*columns)
    return payload


def _population_from_json(text: str) -> Population:
    """Columns of the pre-columns checkpoint population document."""
    try:
        objects = json.loads(text)["objects"]
        return Population(*(
            np.array([entry[name] for entry in objects], dtype=dtype)
            for name, dtype in _COLUMNS
        ))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CorruptRecordError(
            f"malformed checkpoint population: {exc}"
        ) from exc
