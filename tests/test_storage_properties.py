"""Property tests for the durable log: arbitrary damage, no surprises.

The contract under test: for *any* truncation point and *any*
single-bit flip, recovery yields a prefix of the committed records and
never an unhandled exception.  Truncation is checked exhaustively at
every byte offset; payload shapes and damage locations are
additionally explored by hypothesis.  Besides arbitrary payloads, the
same damage is dealt to a log written by one grouped append
(``DurableLog.append_many``) mixing fixed-width and JSON records, and
the recovered payloads are decoded as the WAL decodes them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DurableLog, FileWALBackend, pack_frame, scan_log
from repro.storage.codec import decode_record, encode_record

from tests.test_storage_codec import JSON_RECORDS, PLAIN_RECORDS

pytestmark = pytest.mark.durability

payloads_strategy = st.lists(
    st.binary(min_size=0, max_size=64), min_size=0, max_size=12
)


def log_bytes(payloads):
    return b"".join(pack_frame(p) for p in payloads)


#: One shard group as the service logs it: plain writes (41 / 17 bytes)
#: interleaved with fenced writes, migration markers and a band change.
MIXED_RECORDS = [
    dict(record, seq=seq)
    for seq, record in enumerate(
        [r for pair in zip(PLAIN_RECORDS * 3, JSON_RECORDS) for r in pair],
        start=1,
    )
]


def grouped_log(directory):
    """The bytes one ``append_many`` of :data:`MIXED_RECORDS` leaves."""
    path = str(directory / "group.log")
    log = DurableLog(path, fsync="never")
    log.append_many([encode_record(r) for r in MIXED_RECORDS])
    log.close()
    with open(path, "rb") as handle:
        return handle.read()


def decoded(data):
    """What a WAL reopening ``data`` recovers: scan, then decode."""
    payloads, _ = scan_log(data)
    return [decode_record(p) for p in payloads]


def frame_index_at(payloads, offset):
    """Which frame the byte at ``offset`` belongs to."""
    position = 0
    for i, p in enumerate(payloads):
        position += len(pack_frame(p))
        if offset < position:
            return i
    return len(payloads)


@given(payloads=payloads_strategy)
@settings(max_examples=60, deadline=None)
def test_scan_roundtrip(payloads):
    scanned, valid = scan_log(log_bytes(payloads))
    assert scanned == payloads
    assert valid == len(log_bytes(payloads))


def test_truncation_at_every_byte_offset_yields_a_prefix():
    """Exhaustive: cut the log after every single byte."""
    payloads = [b"", b"a", b"bb" * 20, b"c" * 7, b"dd", b"e" * 33]
    data = log_bytes(payloads)
    for offset in range(len(data) + 1):
        scanned, valid = scan_log(data[:offset])
        # A (possibly empty) prefix of the committed records...
        assert scanned == payloads[:len(scanned)]
        # ...containing every record that fits entirely in the cut.
        assert len(scanned) == frame_index_at(payloads, offset)
        assert valid <= offset


def test_grouped_append_truncated_at_every_byte_decodes_a_prefix(tmp_path):
    """Exhaustive over one mixed group: every cut decodes to exactly
    the records wholly inside it."""
    data = grouped_log(tmp_path)
    payloads = [encode_record(r) for r in MIXED_RECORDS]
    assert data == b"".join(map(pack_frame, payloads))
    for offset in range(len(data) + 1):
        records = decoded(data[:offset])
        assert records == MIXED_RECORDS[:frame_index_at(payloads, offset)]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_grouped_append_bit_flip_decodes_a_prefix(tmp_path_factory, data):
    blob = bytearray(grouped_log(tmp_path_factory.mktemp("group")))
    offset = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[offset] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    payloads = [encode_record(r) for r in MIXED_RECORDS]
    damaged = frame_index_at(payloads, offset)
    # CRC32 catches every single-bit error: the records before the
    # damaged frame decode intact and nothing from it onwards survives.
    assert decoded(bytes(blob)) == MIXED_RECORDS[:damaged]


@given(cut=st.integers(min_value=0, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_torn_grouped_append_reopens_as_a_prefix(tmp_path_factory, cut):
    """End-to-end through the WAL backend: a group cut anywhere reopens
    to a record prefix and the log keeps taking appends."""
    directory = tmp_path_factory.mktemp("torn")
    backend = FileWALBackend(str(directory), fsync="never")
    backend.append_many([encode_record(r) for r in MIXED_RECORDS])
    segment = directory / backend.stats()["store"]["segment"]
    backend.close()
    data = segment.read_bytes()
    segment.write_bytes(data[:min(cut, len(data))])
    reopened = FileWALBackend(str(directory), fsync="never")
    _, tail = reopened.load()
    assert list(map(decode_record, tail)) == MIXED_RECORDS[:len(tail)]
    reopened.append_many([encode_record(r) for r in PLAIN_RECORDS])
    reopened.close()
    final = FileWALBackend(str(directory))
    assert list(map(decode_record, final.load()[1])) == (
        MIXED_RECORDS[:len(tail)] + PLAIN_RECORDS)
    final.close()


@given(payloads=payloads_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_random_truncation_yields_a_prefix(payloads, data):
    blob = log_bytes(payloads)
    offset = data.draw(st.integers(min_value=0, max_value=len(blob)))
    scanned, valid = scan_log(blob[:offset])
    assert scanned == payloads[:len(scanned)]
    assert len(scanned) == frame_index_at(payloads, offset)


@given(payloads=payloads_strategy.filter(lambda ps: log_bytes(ps)),
       data=st.data())
@settings(max_examples=80, deadline=None)
def test_single_bit_flip_never_crashes_and_keeps_earlier_records(
    payloads, data
):
    blob = bytearray(log_bytes(payloads))
    offset = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    blob[offset] ^= 1 << bit
    scanned, valid = scan_log(bytes(blob))
    damaged = frame_index_at(payloads, offset)
    # Everything before the damaged frame survives intact; CRC framing
    # guarantees the damage is detected there (single-bit errors are
    # always caught by CRC32), cutting the recovered prefix.
    assert scanned[:damaged] == payloads[:damaged]
    assert len(scanned) >= damaged
    assert valid <= len(blob)


@given(payloads=payloads_strategy, cut=st.integers(min_value=0,
                                                   max_value=1000),
       tail=st.binary(min_size=0, max_size=32))
@settings(max_examples=60, deadline=None)
def test_durable_log_reopen_truncates_and_continues(tmp_path_factory,
                                                    payloads, cut, tail):
    """End-to-end through DurableLog: damage the file on disk, reopen,
    recover the prefix, keep appending — the log must stay usable."""
    directory = tmp_path_factory.mktemp("proplog")
    path = str(directory / "wal.log")
    log = DurableLog(path, fsync="always")
    for p in payloads:
        log.append(p)
    log.close()
    blob = log_bytes(payloads)
    keep = min(cut, len(blob))
    with open(path, "wb") as handle:
        handle.write(blob[:keep] + tail)
    reopened = DurableLog(path, fsync="always")
    recovered = list(reopened.recovered_payloads)
    # Frames wholly inside the kept prefix always survive intact.  (No
    # stronger claim: arbitrary garbage after the cut can legitimately
    # form a *valid* frame — e.g. eight zero bytes decode as an empty
    # record — and recovery has no way to tell it from a real one.)
    intact = frame_index_at(payloads, keep)
    assert recovered[:intact] == payloads[:intact]
    reopened.append(b"post-damage")
    reopened.close()
    final = DurableLog(path)
    assert final.recovered_payloads == recovered + [b"post-damage"]
    final.close()
