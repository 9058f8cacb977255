"""DurableLog unit tests: framing, fsync policies, torn-tail recovery."""

import errno
import os
import struct

import pytest

import repro.storage.log as log_module
from repro.errors import SimulatedCrashError
from repro.io_sim.layout import WAL_FRAME_HEADER, framed_record_bytes
from repro.service.faults import CrashPointInjector
from repro.storage import (
    DEFAULT_BATCH_INTERVAL,
    DurableLog,
    FsyncPolicy,
    pack_frame,
    scan_log,
)

from tests.helpers import HalfWriteThenENOSPC

pytestmark = pytest.mark.durability


# -- framing / scanning ----------------------------------------------------------


def test_frame_layout_matches_io_sim_header():
    frame = pack_frame(b"hello")
    assert len(frame) == WAL_FRAME_HEADER.record_bytes + 5
    assert len(frame) == framed_record_bytes(5)


def test_scan_roundtrips_all_records():
    payloads = [b"", b"a", b"x" * 300, b'{"kind": "insert"}']
    data = b"".join(pack_frame(p) for p in payloads)
    scanned, valid = scan_log(data)
    assert scanned == payloads
    assert valid == len(data)


def test_scan_stops_at_torn_header_and_payload():
    data = pack_frame(b"first") + pack_frame(b"second")
    whole = len(pack_frame(b"first"))
    # Torn inside the second frame's header.
    scanned, valid = scan_log(data[:whole + 3])
    assert scanned == [b"first"] and valid == whole
    # Torn inside the second frame's payload.
    scanned, valid = scan_log(data[:len(data) - 2])
    assert scanned == [b"first"] and valid == whole


def test_scan_stops_at_crc_mismatch_discarding_later_frames():
    data = pack_frame(b"aaaa") + pack_frame(b"bbbb") + pack_frame(b"cccc")
    first = len(pack_frame(b"aaaa"))
    corrupt = bytearray(data)
    corrupt[first + WAL_FRAME_HEADER.record_bytes] ^= 0xFF  # payload of #2
    scanned, valid = scan_log(bytes(corrupt))
    # Frame 3 is intact but unreachable: a log is only a prefix.
    assert scanned == [b"aaaa"] and valid == first


def test_scan_treats_garbage_length_as_torn():
    bogus = struct.pack("<II", 0xFFFFFFF0, 0) + b"junk"
    scanned, valid = scan_log(pack_frame(b"ok") + bogus)
    assert scanned == [b"ok"]
    assert valid == len(pack_frame(b"ok"))


# -- fsync policy ---------------------------------------------------------------


def test_fsync_policy_parsing():
    assert FsyncPolicy.parse("always").mode == "always"
    assert FsyncPolicy.parse("never").mode == "never"
    batch = FsyncPolicy.parse("batch:5")
    assert (batch.mode, batch.interval) == ("batch", 5)
    assert FsyncPolicy.parse("batch").interval == DEFAULT_BATCH_INTERVAL
    assert FsyncPolicy.parse("ALWAYS").mode == "always"
    policy = FsyncPolicy("batch", 3)
    assert FsyncPolicy.parse(policy) is policy
    assert policy.spec() == "batch:3"


@pytest.mark.parametrize("bad", ["sometimes", "batch:0", "batch:-1"])
def test_fsync_policy_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        FsyncPolicy.parse(bad)


def test_fsync_counts_match_policy(tmp_path):
    def fsyncs(policy, appends):
        log = DurableLog(str(tmp_path / f"{policy}.log"), fsync=policy)
        for i in range(appends):
            log.append(b"x%d" % i)
        count = log.fsyncs
        log.close()
        return count

    assert fsyncs("always", 6) == 6
    assert fsyncs("batch:3", 6) == 2
    assert fsyncs("never", 6) == 0


def test_sync_forces_durability_under_never(tmp_path):
    log = DurableLog(str(tmp_path / "wal.log"), fsync="never")
    log.append(b"one")
    assert log.synced_size == 0
    log.sync()
    assert log.synced_size == log.size
    assert log.fsyncs == 1
    log.close()


# -- reopen / recovery ----------------------------------------------------------


def test_reopen_recovers_payloads_and_appends_continue(tmp_path):
    path = str(tmp_path / "wal.log")
    log = DurableLog(path)
    log.append(b"r1")
    log.append(b"r2")
    log.close()
    reopened = DurableLog(path)
    assert reopened.recovered_payloads == [b"r1", b"r2"]
    reopened.append(b"r3")
    reopened.close()
    third = DurableLog(path)
    assert third.recovered_payloads == [b"r1", b"r2", b"r3"]
    third.close()


def test_open_truncates_torn_tail(tmp_path):
    path = str(tmp_path / "wal.log")
    log = DurableLog(path)
    log.append(b"keep-me")
    log.close()
    with open(path, "ab") as handle:
        handle.write(pack_frame(b"torn-record")[:-4])
    events = []
    reopened = DurableLog(path, on_event=lambda n, a: events.append((n, a)))
    assert reopened.recovered_payloads == [b"keep-me"]
    assert reopened.truncated_bytes == len(pack_frame(b"torn-record")) - 4
    assert ("torn_tail", 1) in events
    reopened.append(b"after")
    reopened.close()
    # The truncation left a clean prefix: both records now valid.
    final = DurableLog(path)
    assert final.recovered_payloads == [b"keep-me", b"after"]
    final.close()


def test_a_failed_write_is_cut_before_the_next_append(tmp_path):
    """A write that half-lands and raises ``ENOSPC`` is cut back to the
    last whole frame, so the next append — fsynced under ``always`` —
    is recovered instead of vanishing behind a torn frame."""
    path = str(tmp_path / "wal.log")
    log = DurableLog(path, fsync="always")
    log.append(b"A" * 41)
    log._file = HalfWriteThenENOSPC(log._file)
    with pytest.raises(OSError):
        log.append(b"B" * 41)
    log.append(b"C" * 41)
    assert log.synced_size == log.size == os.path.getsize(path)
    log.close()
    reopened = DurableLog(path)
    assert reopened.recovered_payloads == [b"A" * 41, b"C" * 41]
    assert reopened.truncated_bytes == 0
    reopened.close()


def test_a_failed_cut_back_kills_the_log_and_keeps_the_write_error(
    tmp_path, monkeypatch
):
    """When the cut back itself fails (the reopen raises ``EIO``), the
    caller still sees the write's ``ENOSPC``, with a note; the log is
    dead rather than left on a closed handle, and reopening it cuts
    the torn frame."""
    path = str(tmp_path / "wal.log")
    log = DurableLog(path, fsync="always")
    log.append(b"A" * 41)
    log._file = HalfWriteThenENOSPC(log._file)

    def unopenable(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(log_module, "open", unopenable, raising=False)
    with pytest.raises(OSError) as failed:
        log.append(b"B" * 41)
    monkeypatch.undo()
    assert failed.value.errno == errno.ENOSPC
    assert any("Input/output error" in note
               for note in failed.value.__notes__)
    with pytest.raises(ValueError, match="reopen it to recover"):
        log.append(b"C" * 41)
    with pytest.raises(ValueError, match="reopen it to recover"):
        log.sync()
    log.close()  # a dead log closes quietly
    reopened = DurableLog(path)
    assert reopened.recovered_payloads == [b"A" * 41]
    assert reopened.truncated_bytes > 0
    reopened.close()


# -- crash-point injection -------------------------------------------------------


def test_mid_record_crash_leaves_strict_prefix(tmp_path):
    path = str(tmp_path / "wal.log")
    log = DurableLog(
        path, crash_hook=CrashPointInjector().arm("log.mid_record", at=2)
    )
    log.append(b"committed")
    with pytest.raises(SimulatedCrashError):
        log.append(b"in-flight-record")
    with pytest.raises(ValueError):
        log.append(b"log is dead")
    size = os.path.getsize(path)
    whole = len(pack_frame(b"committed"))
    assert whole < size < whole + len(pack_frame(b"in-flight-record"))
    recovered = DurableLog(path)
    assert recovered.recovered_payloads == [b"committed"]
    recovered.close()


def test_mid_record_crash_with_explicit_prefix(tmp_path):
    path = str(tmp_path / "wal.log")
    injector = CrashPointInjector().arm("log.mid_record", write_prefix=0)
    log = DurableLog(path, crash_hook=injector)
    with pytest.raises(SimulatedCrashError):
        log.append(b"never-lands")
    assert os.path.getsize(path) == 0
    reopened = DurableLog(path)
    assert reopened.recovered_payloads == []
    reopened.close()


def test_pre_fsync_crash_with_page_cache_loss(tmp_path):
    """drop_unsynced models the power cut: unsynced appends vanish."""
    path = str(tmp_path / "wal.log")
    injector = CrashPointInjector().arm(
        "log.pre_fsync", at=3, drop_unsynced=True
    )
    log = DurableLog(path, fsync="never", crash_hook=injector)
    log.append(b"a")
    log.append(b"b")
    log.sync()  # durability floor: a, b
    with pytest.raises(SimulatedCrashError):
        log.append(b"c")
    recovered = DurableLog(path)
    assert recovered.recovered_payloads == [b"a", b"b"]
    recovered.close()


def test_post_fsync_crash_keeps_the_record(tmp_path):
    path = str(tmp_path / "wal.log")
    injector = CrashPointInjector().arm(
        "log.post_fsync", drop_unsynced=True
    )
    log = DurableLog(path, fsync="always", crash_hook=injector)
    with pytest.raises(SimulatedCrashError):
        log.append(b"durable")
    recovered = DurableLog(path)
    # fsync happened before the crash: even page-cache loss keeps it.
    assert recovered.recovered_payloads == [b"durable"]
    recovered.close()


def test_injector_fires_once_per_armed_point(tmp_path):
    injector = CrashPointInjector().arm("log.mid_record", at=2)
    log = DurableLog(str(tmp_path / "wal.log"), crash_hook=injector)
    log.append(b"first")  # arrival 1: armed at 2, no fire
    with pytest.raises(SimulatedCrashError):
        log.append(b"second")
    assert injector.fired == [("log.mid_record", 2)]
    assert injector.hits("log.mid_record") == 2
    reopened = DurableLog(str(tmp_path / "wal.log"), crash_hook=injector)
    reopened.append(b"third")  # disarmed: appends flow again
    assert reopened.recovered_payloads == [b"first"]
    reopened.close()
