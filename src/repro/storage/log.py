"""An append-only binary log file with torn-write recovery.

:class:`DurableLog` is the real-file half of the repo's durability
story (ROADMAP item 3): where :mod:`repro.io_sim` *simulates* pages to
reproduce the paper's I/O counts, this module writes actual bytes
through actual ``write``/``fsync`` syscalls, so crash recovery can be
tested against real file-system semantics instead of Python lists.

Record framing (math shared with the simulator via
:data:`repro.io_sim.layout.WAL_FRAME_HEADER`)::

    +----------------+----------------+------------------+
    | length  (u32le)| crc32  (u32le) | payload (length) |
    +----------------+----------------+------------------+

Recovery (:func:`scan_log`) walks frames from offset 0 and stops at
the first frame that is torn (header or payload extends past EOF) or
corrupt (CRC mismatch); everything after that point — including later
frames that would individually check out — is discarded, because a
log is only meaningful as a prefix.  Opening an existing log truncates
the file to that valid prefix instead of crashing.

Fsync policy decides what "committed" means (see
:class:`FsyncPolicy`): ``always`` fsyncs every append (an append that
returned is durable), ``batch:N`` fsyncs every N appends (the last
< N acknowledged appends may vanish in a crash), ``never`` leaves
durability to checkpoints and explicit :meth:`DurableLog.sync` calls.
:meth:`DurableLog.append_many` writes a group of frames with one
``write`` and consults the policy once for the whole group.  What a
payload holds is :mod:`repro.storage.codec`'s business, not this
module's.

Crash-point injection: a ``crash_hook`` callable receives boundary
names (``log.mid_record``, ``log.pre_fsync``, ``log.post_fsync``) once
per append or group and may raise
:class:`~repro.errors.SimulatedCrashError`; the log then dies exactly
as a process would — optionally leaving a torn prefix of the in-flight
bytes on disk, optionally dropping everything unsynced.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulatedCrashError
from repro.io_sim.layout import WAL_FRAME_HEADER

#: struct codec for the frame header: payload length, payload CRC32.
FRAME_HEADER = struct.Struct("<II")
FRAME_HEADER_BYTES = WAL_FRAME_HEADER.record_bytes
assert FRAME_HEADER.size == FRAME_HEADER_BYTES

#: Crash-point vocabulary of this module (see module docstring).
LOG_CRASH_POINTS = ("log.mid_record", "log.pre_fsync", "log.post_fsync")

CrashHook = Callable[[str], None]
EventHook = Callable[[str, int], None]


@dataclass(frozen=True)
class FsyncPolicy:
    """When the log calls ``fsync`` (and therefore what is committed).

    mode:
        ``"always"`` — fsync after every append; ``"batch"`` — fsync
        every ``interval`` appends; ``"never"`` — only explicit
        :meth:`DurableLog.sync` calls (checkpoints issue one).
    """

    mode: str
    interval: int = 1

    _MODES = ("always", "batch", "never")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(
                f"fsync mode must be one of {self._MODES}, got {self.mode!r}"
            )
        if self.interval < 1:
            raise ValueError(
                f"fsync batch interval must be >= 1, got {self.interval}"
            )

    @classmethod
    def parse(cls, spec: "FsyncPolicy | str") -> "FsyncPolicy":
        """``"always"`` | ``"never"`` | ``"batch"`` | ``"batch:N"``."""
        if isinstance(spec, FsyncPolicy):
            return spec
        text = spec.strip().lower()
        if text.startswith("batch"):
            _, _, tail = text.partition(":")
            interval = int(tail) if tail else DEFAULT_BATCH_INTERVAL
            return cls("batch", interval)
        return cls(text)

    def due(self, appends_since_sync: int) -> bool:
        if self.mode == "always":
            return True
        if self.mode == "batch":
            return appends_since_sync >= self.interval
        return False

    def spec(self) -> str:
        """The round-trippable string form (for reports/manifests)."""
        if self.mode == "batch":
            return f"batch:{self.interval}"
        return self.mode


#: ``batch`` interval when none is given (``--fsync batch``).
DEFAULT_BATCH_INTERVAL = 8


def pack_frame(payload: bytes) -> bytes:
    """One on-disk frame: length + CRC32 header, then the payload."""
    return FRAME_HEADER.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    ) + payload


def scan_log(data: bytes) -> Tuple[List[bytes], int]:
    """Longest valid frame prefix of ``data``.

    Returns ``(payloads, valid_bytes)``: the payloads of every frame
    in the prefix, and the byte offset where validity ends.  Scanning
    stops at a torn header, a length that runs past EOF, or a CRC
    mismatch — never raises.
    """
    payloads: List[bytes] = []
    offset = 0
    total = len(data)
    while True:
        if offset + FRAME_HEADER_BYTES > total:
            break  # torn header
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        start = offset + FRAME_HEADER_BYTES
        if length > total - start:
            break  # torn payload (or a corrupted length field)
        payload = data[start:start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # corrupt payload (or a corrupted CRC/length field)
        payloads.append(payload)
        offset = start + length
    return payloads, offset


class DurableLog:
    """Append-only framed log over one real file.

    Opening an existing file runs recovery: the file is scanned with
    :func:`scan_log`, truncated to its valid prefix, and the surviving
    payloads are exposed as :attr:`recovered_payloads`.  The handle is
    then positioned for appending.

    Not thread-safe — the owner (a shard WAL under the shard lock)
    serializes access, same as :class:`~repro.service.wal.ShardWAL`.
    """

    def __init__(
        self,
        path: str,
        fsync: "FsyncPolicy | str" = "always",
        crash_hook: Optional[CrashHook] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self.path = path
        self.policy = FsyncPolicy.parse(fsync)
        self._crash_hook = crash_hook
        self._on_event = on_event
        self._dead = False
        self.recovered_payloads: List[bytes] = []
        self.truncated_bytes = 0
        existing = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                existing = handle.read()
        self.recovered_payloads, valid = scan_log(existing)
        self.truncated_bytes = len(existing) - valid
        self._file = open(path, "ab" if not existing else "r+b")
        if self.truncated_bytes:
            self._file.truncate(valid)
            self._event("truncated_bytes", self.truncated_bytes)
            self._event("torn_tail", 1)
        self._file.seek(valid)
        self._size = valid
        self._synced_size = valid
        self._since_sync = 0
        self.appends = 0
        self.fsyncs = 0
        if self.recovered_payloads:
            self._event("recovered_records", len(self.recovered_payloads))

    # -- crash / event plumbing ------------------------------------------------

    def _event(self, name: str, amount: int) -> None:
        if self._on_event is not None:
            self._on_event(name, amount)

    def _crash(self, point: str, pending: Optional[bytes] = None) -> None:
        """Consult the crash hook at one durability boundary.

        When the hook raises, this models process death: optionally a
        torn prefix of ``pending`` reaches disk, optionally unsynced
        bytes are lost, then the log is closed dead and the error
        propagates to the caller (whose only recourse is reopening).
        """
        if self._crash_hook is None:
            return
        try:
            self._crash_hook(point)
        except SimulatedCrashError as exc:
            if pending is not None and exc.write_prefix != 0:
                cut = (
                    exc.write_prefix
                    if exc.write_prefix is not None
                    else len(pending) // 2
                )
                cut = min(max(cut, 0), len(pending) - 1)
                self._file.write(pending[:cut])
                self._file.flush()
                self._size += cut
            if exc.drop_unsynced:
                self._file.flush()
                self._file.truncate(self._synced_size)
                self._size = self._synced_size
            self._file.close()
            self._dead = True
            raise

    def _ensure_alive(self) -> None:
        if self._dead:
            raise ValueError(
                f"log {self.path} died at an injected crash point or a "
                "write it could not cut back; reopen it to recover"
            )

    # -- appending ---------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Write one framed record; returns its starting offset.

        When this returns, the record is on disk at least as far as
        the OS page cache; it is *committed* (guaranteed to survive a
        crash) only once a fsync covered it — immediately under
        ``always``, at the next batch boundary under ``batch:N``, at
        the next checkpoint/explicit sync under ``never``.
        """
        return self.append_many((payload,))

    def append_many(self, payloads: Sequence[bytes]) -> int:
        """Write a group of framed records with one ``write``; returns
        the group's starting offset.

        The group is one unit at every durability boundary: each
        ``log.*`` crash hook fires once for it (a ``log.mid_record``
        death leaves whole frames plus at most one torn one, which
        recovery cuts), and the fsync policy is consulted once, after
        the whole group is written, with every record counting as one
        append towards ``batch:N``.
        A failed ``write`` or ``flush`` (``ENOSPC``) logs none of the
        group: the file is cut back to the last whole frame.
        """
        self._ensure_alive()
        blob = b"".join(map(pack_frame, payloads))
        self._crash("log.mid_record", pending=blob)
        offset = self._size
        try:
            self._file.write(blob)
            self._file.flush()
        except OSError as failure:
            # Cut back through a fresh handle (the old one's buffer would
            # re-emit the torn bytes).  If that fails too the log is
            # dead, and reopening it cuts the torn frame.
            try:
                self._file.close()
            except OSError:
                pass  # the unflushable buffer is exactly what is dropped
            try:
                self._file = open(self.path, "r+b")
                self._file.truncate(self._size)
                self._file.seek(self._size)
            except OSError as repair:
                self._dead = True
                self._file.close()
                failure.add_note(f"cutting {self.path} back failed: {repair}")
            raise
        self._size += len(blob)
        self._since_sync += len(payloads)
        self.appends += len(payloads)
        self._crash("log.pre_fsync")
        if self.policy.due(self._since_sync):
            self._fsync()
            self._crash("log.post_fsync")
        return offset

    def _fsync(self) -> None:
        os.fsync(self._file.fileno())
        self._synced_size = self._size
        self._since_sync = 0
        self.fsyncs += 1
        self._event("fsync", 1)

    def sync(self) -> None:
        """Force durability of everything appended so far (any policy)."""
        self._ensure_alive()
        if self._since_sync or self._synced_size < self._size:
            self._file.flush()
            self._fsync()

    def close(self) -> None:
        """Graceful shutdown: flush + fsync, then close the handle."""
        if self._dead or self._file.closed:
            return
        self._file.flush()
        if self._synced_size < self._size:
            self._fsync()
        self._file.close()

    # -- introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Bytes currently in the log file (valid prefix + in-flight)."""
        return self._size

    @property
    def synced_size(self) -> int:
        """Bytes guaranteed durable (covered by the last fsync)."""
        return self._synced_size

    def stats(self) -> dict:
        return {
            "path": self.path,
            "fsync": self.policy.spec(),
            "size_bytes": self._size,
            "synced_bytes": self._synced_size,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "recovered_records": len(self.recovered_payloads),
            "truncated_bytes": self.truncated_bytes,
        }
