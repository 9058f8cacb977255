"""The storage codec: binary records and columnar checkpoints.

Four walls around :mod:`repro.storage.codec`:

* every record kind round-trips, plain writes at their fixed widths
  and the rest (fenced writes, ``migrate_*``, ``bands``) as JSON;
* checkpoints round-trip as a JSON header plus columns;
* a directory in the pre-binary format — JSON record frames and a
  JSON checkpoint holding the population as a string — recovers to
  the same population, and keeps recovering once binary records are
  appended to its old segment;
* a CRC-valid payload whose first byte or length matches no layout
  raises ``CorruptRecordError`` instead of being misparsed.

Damage (truncation, bit flips) over a grouped append mixing both
record forms lives with the other damage properties in
``test_storage_properties.py``.
"""

import json
import os
import random

import numpy as np
import pytest

from repro.core import LinearMotion1D, MobileObject1D
from repro.errors import CorruptRecordError
from repro.service import ShardWAL
from repro.storage import FileWALBackend, pack_frame
from repro.storage.codec import (
    CHECKPOINT_PREFIX,
    DELETE_RECORD,
    MOTION_RECORD,
    Population,
    decode_checkpoint,
    decode_record,
    encode_checkpoint,
    encode_record,
)
from repro.workloads.serialization import population_to_json

from tests.helpers import apply_record
from tests.test_wal_recovery import (
    assert_equivalent,
    factory,
    seeded_trace,
)

pytestmark = pytest.mark.durability

#: One record of every kind the service logs.
PLAIN_RECORDS = [
    {"seq": 1, "kind": "insert", "oid": 7, "y0": 12.5, "v": -1.25,
     "t0": 3.0},
    {"seq": 2, "kind": "update", "oid": -(2**63), "y0": 0.0, "v": 1.66,
     "t0": 1e9},
    {"seq": 3, "kind": "delete", "oid": 2**63 - 1},
]
JSON_RECORDS = [
    {"seq": 4, "kind": "update", "oid": 7, "y0": 1.0, "v": 0.5,
     "t0": 4.0, "fence": 3},
    {"seq": 5, "kind": "insert", "oid": 8, "y0": 2.0, "v": 0.5,
     "t0": 4.0, "fence": 3},
    {"seq": 6, "kind": "delete", "oid": 8, "fence": 3},
    {"seq": 7, "kind": "migrate_in", "oid": 9, "y0": 3.0, "v": -0.5,
     "t0": 5.0, "epoch": 4, "source": 0, "dest": 1, "history": []},
    {"seq": 8, "kind": "migrate_begin", "oid": 9, "epoch": 4, "dest": 1},
    {"seq": 9, "kind": "migrate_commit", "oid": 9, "epoch": 4},
    {"seq": 10, "kind": "migrate_out", "oid": 9, "epoch": 4},
    {"seq": 11, "kind": "migrate_abort", "oid": 9, "epoch": 5,
     "role": "dest"},
    {"seq": 12, "kind": "bands", "epoch": 2, "edges": [0.4, 0.9]},
]


# -- records --------------------------------------------------------------------


@pytest.mark.parametrize("record", PLAIN_RECORDS + JSON_RECORDS,
                         ids=lambda r: f"{r['kind']}-{r['seq']}")
def test_every_record_kind_round_trips(record):
    payload = encode_record(record)
    assert decode_record(payload) == record
    if record in PLAIN_RECORDS:
        width = (DELETE_RECORD if record["kind"] == "delete"
                 else MOTION_RECORD).size
        assert len(payload) == width
        assert (MOTION_RECORD.size, DELETE_RECORD.size) == (41, 17)
    else:
        assert payload == json.dumps(record, sort_keys=True).encode()


def test_a_value_the_struct_cannot_hold_falls_back_to_json():
    """Plain kinds whose values do not fit the fixed width (an oid past
    int64, a negative seq) still log, as JSON."""
    for record in (
        {"seq": 1, "kind": "delete", "oid": 2**64},
        {"seq": -1, "kind": "insert", "oid": 1, "y0": 1.0, "v": 1.0,
         "t0": 0.0},
    ):
        payload = encode_record(record)
        assert payload[:1] == b"{"
        assert decode_record(payload) == record


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"\x00" + bytes(40),  # unknown tag, motion width
        b"\x09" + bytes(16),  # unknown tag, delete width
        b"[1, 2]",  # JSON, but not an object
        b"\x01" + bytes(39),  # motion tag, one byte short
        b"\x03" + bytes(17),  # delete tag, one byte long
        b"{not json",
    ],
)
def test_a_payload_no_layout_matches_is_refused(payload):
    with pytest.raises(CorruptRecordError):
        decode_record(payload)


def test_a_crc_valid_frame_of_unknown_kind_fails_the_open(tmp_path):
    """The frame passes its CRC, so torn-tail truncation does not
    apply: opening the log refuses it instead of guessing."""
    backend = FileWALBackend(str(tmp_path))
    backend.append_many([encode_record(r) for r in PLAIN_RECORDS])
    segment = os.path.join(str(tmp_path), backend.stats()["store"]["segment"])
    backend.close()
    with open(segment, "ab") as handle:
        handle.write(pack_frame(b"\x07" + bytes(40)))
    with pytest.raises(CorruptRecordError, match="first byte 7"):
        ShardWAL(backend=FileWALBackend(str(tmp_path)))


# -- checkpoints -------------------------------------------------------------------


def sample_population(n, seed=3):
    rng = random.Random(seed)
    oids = sorted({rng.randrange(-(2**40), 2**40) for _ in range(n)})
    return Population(
        np.array(oids, dtype=np.int64),
        *(
            np.array([rng.uniform(lo, hi) for _ in oids], dtype=np.float64)
            for lo, hi in ((0, 1000), (-1.66, 1.66), (0, 50))
        ),
    )


@pytest.mark.parametrize("n", [0, 1, 257])
def test_checkpoint_round_trips_as_header_plus_columns(n):
    population = sample_population(n)
    payload = {"seq": 9, "now": 41.5, "history": [[1, 2.0, 3, 4.0, 5.0]],
               "bands": {"kind": "bands", "epoch": 2, "edges": [0.5]},
               "migrations": [JSON_RECORDS[3]], "population": population}
    blob = encode_checkpoint(payload)
    _, head = CHECKPOINT_PREFIX.unpack_from(blob)
    assert len(blob) == CHECKPOINT_PREFIX.size + head + 32 * n
    decoded = decode_checkpoint(blob)
    columns = decoded.pop("population")
    assert decoded == {k: v for k, v in payload.items() if k != "population"}
    assert [c.dtype.str for c in columns] == ["<i8", "<f8", "<f8", "<f8"]
    for got, want in zip(columns, population):
        assert np.array_equal(got, want)
    assert list(columns.rows()) == list(population.rows())


def test_checkpoint_columns_are_32_bytes_an_object():
    small = encode_checkpoint({"seq": 1, "population": sample_population(10)})
    large = encode_checkpoint({"seq": 1, "population": sample_population(20)})
    assert len(large) - len(small) == 32 * 10


@pytest.mark.parametrize(
    "damage",
    ["first byte", "short column", "long column", "row count"],
)
def test_a_checkpoint_no_layout_matches_is_refused(damage):
    blob = bytearray(
        encode_checkpoint({"seq": 1, "population": sample_population(4)})
    )
    if damage == "first byte":
        blob[0] = 0x09
    elif damage == "short column":
        del blob[-1]
    elif damage == "long column":
        blob += b"\x00"
    else:
        blob = bytearray(bytes(blob).replace(b'"n": 4', b'"n": 5'))
    with pytest.raises(CorruptRecordError):
        decode_checkpoint(bytes(blob))


def test_a_json_checkpoint_loads_its_population_string_as_columns():
    objects = [MobileObject1D(3, LinearMotion1D(1.5, -0.5, 2.0)),
               MobileObject1D(1, LinearMotion1D(9.0, 1.0, 0.0))]
    blob = json.dumps({"seq": 4, "now": 2.0,
                       "population": population_to_json(objects)},
                      sort_keys=True).encode()
    payload = decode_checkpoint(blob)
    assert isinstance(payload["population"], Population)
    assert list(payload["population"].rows()) == [
        (3, 1.5, -0.5, 2.0), (1, 9.0, 1.0, 0.0),
    ]
    assert (payload["seq"], payload["now"]) == (4, 2.0)


# -- the pre-binary directory format ------------------------------------------------


def write_pre_binary_directory(directory, trace, checkpoint_at):
    """A shard directory exactly as the JSON-only format wrote it: the
    first ``checkpoint_at`` events folded into a JSON checkpoint whose
    population is a ``population_to_json`` string, the rest as JSON
    record frames in the segment the manifest names."""
    oracle = factory()
    for event in trace[:checkpoint_at]:
        apply_record(oracle, event)
    checkpoint = {
        "seq": checkpoint_at, "now": oracle.now,
        "population": population_to_json(oracle.objects()),
        "history": None, "bands": None, "migrations": [],
    }
    manifest = {"seq": 1, "checkpoint": "ckpt-00000001.ckpt",
                "log": "wal-00000001.log"}
    files = {
        "MANIFEST": [manifest],
        "ckpt-00000001.ckpt": [checkpoint],
        "wal-00000001.log": [
            dict(event, seq=seq)
            for seq, event in enumerate(trace[checkpoint_at:],
                                        start=checkpoint_at + 1)
        ],
    }
    os.makedirs(directory, exist_ok=True)
    for name, documents in files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            for document in documents:
                handle.write(pack_frame(
                    json.dumps(document, sort_keys=True).encode("utf-8")
                ))


def oracle_for(trace):
    oracle = factory()
    for event in trace:
        apply_record(oracle, event)
    return oracle


def test_a_pre_binary_directory_recovers_the_same_population(tmp_path):
    trace = seeded_trace(41, events=60)
    write_pre_binary_directory(str(tmp_path), trace, checkpoint_at=35)
    wal = ShardWAL(backend=FileWALBackend(str(tmp_path)))
    assert len(wal.tail()) == 25
    assert_equivalent(wal.recover(factory), oracle_for(trace))
    wal.close()


def test_a_mixed_segment_and_a_columnar_checkpoint_recover(tmp_path):
    """Old JSON frames, then binary frames appended after the reopen,
    then a columnar checkpoint: every step recovers the oracle."""
    trace = seeded_trace(41, events=90)
    write_pre_binary_directory(str(tmp_path), trace[:60], checkpoint_at=35)
    wal = ShardWAL(backend=FileWALBackend(str(tmp_path)))
    live = wal.recover(factory)
    for event in trace[60:]:
        apply_record(live, event)
        wal.append(**event)
    wal.close()
    reopened = ShardWAL(backend=FileWALBackend(str(tmp_path)))
    kinds = {record["kind"] for record in reopened.tail()}
    assert len(reopened.tail()) == 55 and kinds <= {"insert", "update",
                                                     "delete"}
    assert_equivalent(reopened.recover(factory), oracle_for(trace))
    reopened.checkpoint(live)
    reopened.close()
    with open(os.path.join(str(tmp_path), "ckpt-00000002.ckpt"), "rb") as f:
        assert f.read()[8] == 0x04  # past the frame header: columns
    final = ShardWAL(backend=FileWALBackend(str(tmp_path)))
    assert_equivalent(final.recover(factory), oracle_for(trace))
    final.close()
