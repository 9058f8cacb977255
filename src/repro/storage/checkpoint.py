"""Atomic checkpoints and the superblock manifest.

:class:`CheckpointStore` owns one directory holding the durable state
of one shard WAL:

``MANIFEST``
    The superblock: a single CRC-framed JSON blob naming the active
    checkpoint file and the active log segment (plus the checkpoint
    sequence number).  Updated atomically (temp + fsync +
    ``os.replace``), so at every instant the manifest names exactly
    one consistent (checkpoint, log) pair.
``ckpt-<seq>.ckpt``
    A CRC-framed checkpoint payload, written atomically (its bytes are
    :func:`~repro.storage.codec.encode_checkpoint`'s: a JSON header
    plus the population as columns).
``wal-<seq>.log``
    The log segment that starts at checkpoint ``seq`` (managed by
    :class:`~repro.storage.log.DurableLog`; this module only names and
    garbage-collects segments).

Checkpoint protocol (crash points in brackets)::

    write ckpt-<n>.ckpt.tmp, flush        [checkpoint.pre_fsync]
    fsync(tmp)                            [checkpoint.post_fsync_pre_rename]
    os.replace(tmp -> ckpt-<n>.ckpt)
    create empty wal-<n>.log, fsync dir   [checkpoint.post_rename_pre_manifest]
    atomically replace MANIFEST           [checkpoint.post_manifest]
    delete superseded ckpt-*/wal-*/tmp files

A crash anywhere before the manifest replace leaves the manifest
naming the *old* pair — and because log segments are only truncated by
switching segments, the old log still contains every record up to the
checkpoint call, so recovery reproduces the same committed state the
new checkpoint would have.  A crash after the replace recovers from
the new pair; the superseded files are garbage-collected on the next
open.  Checkpoint and manifest writes always fsync regardless of the
log's fsync policy — checkpoints are rare and are the durability floor
of the ``never`` policy.

If the manifest itself is corrupted (bit rot — atomic replace rules
out torn manifests), recovery falls back to scanning the directory for
the highest-sequence checkpoint that passes its CRC.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Dict, Optional, Tuple

from repro.errors import CorruptRecordError, SimulatedCrashError
from repro.storage.codec import decode_checkpoint, encode_checkpoint
from repro.storage.log import pack_frame, scan_log

MANIFEST_NAME = "MANIFEST"
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")
_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")

#: Crash-point vocabulary of this module (see module docstring).
CHECKPOINT_CRASH_POINTS = (
    "checkpoint.pre_fsync",
    "checkpoint.post_fsync_pre_rename",
    "checkpoint.post_rename_pre_manifest",
    "checkpoint.post_manifest",
)

CrashHook = Callable[[str], None]
EventHook = Callable[[str, int], None]


def checkpoint_file_name(seq: int) -> str:
    return f"ckpt-{seq:08d}.ckpt"


def segment_file_name(seq: int) -> str:
    return f"wal-{seq:08d}.log"


def read_framed_file(path: str) -> Optional[bytes]:
    """The payload of a single-frame file, ``None`` if torn/corrupt."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return None
    payloads, valid = scan_log(data)
    if len(payloads) != 1 or valid != len(data):
        return None
    return payloads[0]


class CheckpointStore:
    """Manifest + checkpoint files for one WAL directory."""

    def __init__(
        self,
        directory: str,
        crash_hook: Optional[CrashHook] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self.directory = directory
        self._crash_hook = crash_hook
        self._on_event = on_event
        self._dead = False
        os.makedirs(directory, exist_ok=True)
        self._seq, self._checkpoint_name, self._segment_name = (
            self._recover_manifest()
        )
        self._collect_garbage()

    # -- plumbing ---------------------------------------------------------------

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _event(self, name: str, amount: int) -> None:
        if self._on_event is not None:
            self._on_event(name, amount)

    def _crash(self, point: str, unsynced_tmp: Optional[str] = None) -> None:
        """Consult the crash hook at one checkpoint boundary.

        ``unsynced_tmp`` names a temp file whose bytes have been
        written but not fsynced; under ``drop_unsynced`` it is removed
        to model page-cache loss.
        """
        if self._crash_hook is None:
            return
        try:
            self._crash_hook(point)
        except SimulatedCrashError as exc:
            if exc.drop_unsynced and unsynced_tmp is not None:
                try:
                    os.remove(unsynced_tmp)
                except OSError:
                    pass
            self._dead = True
            raise

    def _ensure_alive(self) -> None:
        if self._dead:
            raise ValueError(
                f"checkpoint store {self.directory} died at an injected "
                "crash point; reopen it to recover"
            )

    def _fsync_dir(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _write_atomic(self, name: str, payload: bytes,
                      crash_points: bool = False) -> None:
        """temp + flush + fsync + ``os.replace`` + directory fsync."""
        tmp = self._path(name + ".tmp")
        blob = pack_frame(payload)
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if crash_points:
                self._crash("checkpoint.pre_fsync", unsynced_tmp=tmp)
            os.fsync(handle.fileno())
        if crash_points:
            self._crash("checkpoint.post_fsync_pre_rename")
        os.replace(tmp, self._path(name))
        self._fsync_dir()

    # -- recovery ----------------------------------------------------------------

    def _recover_manifest(self) -> Tuple[int, Optional[str], str]:
        """(seq, checkpoint name or None, segment name) to run from."""
        payload = read_framed_file(self._path(MANIFEST_NAME))
        if payload is not None:
            try:
                manifest = json.loads(payload.decode("utf-8"))
                seq = int(manifest["seq"])
                ckpt = manifest["checkpoint"]
                segment = str(manifest["log"])
            except (ValueError, KeyError, UnicodeDecodeError):
                payload = None
            else:
                # A manifest may name a checkpoint whose file was lost
                # or corrupted (bit rot); fall back to scanning then.
                if ckpt is None or read_framed_file(
                    self._path(ckpt)
                ) is not None:
                    return seq, ckpt, segment
                payload = None
        if os.path.exists(self._path(MANIFEST_NAME)):
            self._event("manifest_fallback", 1)
        seq, ckpt = self._scan_for_checkpoint()
        segment = segment_file_name(seq)
        self._write_manifest(seq, ckpt, segment)
        return seq, ckpt, segment

    def _scan_for_checkpoint(self) -> Tuple[int, Optional[str]]:
        """Highest-sequence checkpoint file that passes its CRC."""
        candidates = []
        for name in os.listdir(self.directory):
            match = _CKPT_RE.match(name)
            if match:
                candidates.append((int(match.group(1)), name))
        for seq, name in sorted(candidates, reverse=True):
            if read_framed_file(self._path(name)) is not None:
                return seq, name
        return 0, None

    def _write_manifest(
        self, seq: int, ckpt: Optional[str], segment: str
    ) -> None:
        manifest = {"seq": seq, "checkpoint": ckpt, "log": segment}
        self._write_atomic(
            MANIFEST_NAME,
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
        )
        self._seq, self._checkpoint_name, self._segment_name = (
            seq, ckpt, segment
        )

    def _collect_garbage(self) -> None:
        """Remove superseded/orphaned checkpoint, segment, temp files."""
        keep = {MANIFEST_NAME, self._checkpoint_name, self._segment_name}
        for name in os.listdir(self.directory):
            if name in keep:
                continue
            if (
                _CKPT_RE.match(name)
                or _SEGMENT_RE.match(name)
                or name.endswith(".tmp")
            ):
                try:
                    os.remove(self._path(name))
                except OSError:
                    pass

    # -- public API --------------------------------------------------------------

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def segment_name(self) -> str:
        """The active log segment the manifest points at."""
        return self._segment_name

    def segment_path(self) -> str:
        return self._path(self._segment_name)

    def read(self) -> Optional[Dict]:
        """The active checkpoint payload, ``None`` when fresh."""
        if self._checkpoint_name is None:
            return None
        payload = read_framed_file(self._path(self._checkpoint_name))
        if payload is None:
            # The manifest validated this file at open; losing it now
            # means concurrent tampering — surface, don't guess.
            raise CorruptRecordError(
                f"checkpoint {self._checkpoint_name} no longer passes "
                "its CRC"
            )
        return decode_checkpoint(payload)

    def write(self, payload: Dict) -> str:
        """Atomically install ``payload`` as the new checkpoint.

        Returns the path of the *new* (empty) log segment that takes
        over from the old one; the caller must switch its
        :class:`~repro.storage.log.DurableLog` to it.
        """
        self._ensure_alive()
        seq = self._seq + 1
        ckpt_name = checkpoint_file_name(seq)
        segment_name = segment_file_name(seq)
        blob = encode_checkpoint(payload)
        old_ckpt, old_segment = self._checkpoint_name, self._segment_name
        self._write_atomic(ckpt_name, blob, crash_points=True)
        # The new segment must exist before the manifest names it.
        with open(self._path(segment_name), "wb") as handle:
            os.fsync(handle.fileno())
        self._fsync_dir()
        self._crash("checkpoint.post_rename_pre_manifest")
        self._write_manifest(seq, ckpt_name, segment_name)
        self._crash("checkpoint.post_manifest")
        for stale in (old_ckpt, old_segment):
            if stale is not None and stale != segment_name:
                try:
                    os.remove(self._path(stale))
                except OSError:
                    pass
        return self._path(segment_name)

    def stats(self) -> Dict:
        return {
            "directory": self.directory,
            "seq": self._seq,
            "checkpoint": self._checkpoint_name,
            "segment": self._segment_name,
        }
