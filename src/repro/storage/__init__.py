"""Real on-disk durability for the fault-tolerance stack.

Where :mod:`repro.io_sim` *simulates* external memory to reproduce the
paper's I/O counts, this package writes actual files so that crash
recovery — previously simulated with Python lists — survives real
process death, torn writes and bit rot (ROADMAP item 3; MOIST's
checkpoint-index-state-across-worker-loss discipline):

* :mod:`repro.storage.codec` — what the bytes are: fixed-width
  records for plain writes, JSON for the rest, checkpoints as a JSON
  header plus population columns, old JSON files read unchanged;
* :mod:`repro.storage.log` — :class:`DurableLog`, the append-only
  CRC-framed log with fsync policies, grouped appends and torn-tail
  recovery;
* :mod:`repro.storage.checkpoint` — :class:`CheckpointStore`, atomic
  checkpoints (temp + fsync + rename) behind a superblock manifest;
* :mod:`repro.storage.backend` — :class:`FileWALBackend` /
  :class:`MemoryWALBackend`, the persistence seam under
  :class:`~repro.service.wal.ShardWAL`;
* :mod:`repro.storage.crashdrill` — the SIGKILL smoke drill
  (``python -m repro.storage.crashdrill``): spawn a WAL-backed
  service, kill it mid-write-storm, recover from the directory,
  differential-check for lost committed updates.
"""

from repro.storage.backend import FileWALBackend, MemoryWALBackend
from repro.storage.checkpoint import (
    CHECKPOINT_CRASH_POINTS,
    CheckpointStore,
    read_framed_file,
)
from repro.storage.log import (
    DEFAULT_BATCH_INTERVAL,
    LOG_CRASH_POINTS,
    DurableLog,
    FsyncPolicy,
    pack_frame,
    scan_log,
)

#: Every crash point the storage layer consults, in write order.
ALL_CRASH_POINTS = LOG_CRASH_POINTS + CHECKPOINT_CRASH_POINTS

__all__ = [
    "ALL_CRASH_POINTS",
    "CHECKPOINT_CRASH_POINTS",
    "CheckpointStore",
    "DEFAULT_BATCH_INTERVAL",
    "DurableLog",
    "FileWALBackend",
    "FsyncPolicy",
    "LOG_CRASH_POINTS",
    "MemoryWALBackend",
    "pack_frame",
    "read_framed_file",
    "scan_log",
]
