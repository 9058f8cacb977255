"""WAL persistence backends: null in-memory and durable on-disk.

:class:`~repro.service.wal.ShardWAL` keeps its working state (redo
tail, checkpoint, counters) in memory and writes *through* one of
these backends:

* :class:`MemoryWALBackend` — the default null sink.  State lives only
  in the ``ShardWAL`` mirrors, exactly the pre-durability behaviour;
  unit tests stay fast and dependency-free.
* :class:`FileWALBackend` — the real thing: every group of records is
  appended to a :class:`~repro.storage.log.DurableLog` segment and
  every checkpoint goes through the
  :class:`~repro.storage.checkpoint.CheckpointStore` atomic protocol.
  Constructing a backend over a directory that already holds a
  previous incarnation's files runs recovery (manifest resolution,
  torn-tail truncation) and exposes the surviving state via
  :meth:`load`, which a fresh ``ShardWAL`` adopts as its mirrors —
  that is the whole crash-restart story: build a new service over the
  same directory and it continues from the committed prefix.

Records arrive as :mod:`repro.storage.codec` payloads, framed per
:data:`repro.io_sim.layout.WAL_FRAME_HEADER`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.storage.checkpoint import CheckpointStore
from repro.storage.log import DurableLog, FsyncPolicy

CrashHook = Callable[[str], None]
EventHook = Callable[[str, int], None]


class MemoryWALBackend:
    """Null persistence: the ShardWAL mirrors are the only copy.

    Exists so the write-through call sites are unconditional; a
    simulated crash in this regime is "rebuild from the same ShardWAL
    object", which is what the PR-3 chaos suites exercise.
    """

    def load(self) -> Tuple[Optional[Dict], List[bytes]]:
        return None, []

    def append_many(self, payloads: Sequence[bytes]) -> None:
        pass

    def checkpoint(self, payload: Dict) -> None:
        pass

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass

    def stats(self) -> Dict:
        return {"kind": "memory"}


class FileWALBackend:
    """Durable log + atomic checkpoints under one directory.

    Parameters
    ----------
    directory:
        Home of this WAL's manifest, checkpoint and log-segment files
        (one directory per shard).
    fsync:
        :class:`~repro.storage.log.FsyncPolicy` spec for the log
        (``always`` / ``batch[:N]`` / ``never``).  Checkpoints always
        fsync.
    crash_hook / on_event:
        Crash-point injection and counter hooks, passed through to the
        log and checkpoint store (see
        :class:`~repro.service.faults.CrashPointInjector` and
        :func:`~repro.service.metrics.wal_event_recorder`).
    """

    def __init__(
        self,
        directory: str,
        fsync: "FsyncPolicy | str" = "always",
        crash_hook: Optional[CrashHook] = None,
        on_event: Optional[EventHook] = None,
    ) -> None:
        self.directory = directory
        self.policy = FsyncPolicy.parse(fsync)
        self._crash_hook = crash_hook
        self._on_event = on_event
        self._store = CheckpointStore(
            directory, crash_hook=crash_hook, on_event=on_event
        )
        checkpoint = self._store.read()
        self._log = self._open_segment(self._store.segment_path())
        self._recovered: Tuple[Optional[Dict], List[bytes]] = (
            checkpoint, self._log.recovered_payloads
        )

    def _open_segment(self, path: str) -> DurableLog:
        return DurableLog(
            path,
            fsync=self.policy,
            crash_hook=self._crash_hook,
            on_event=self._on_event,
        )

    # -- the ShardWAL contract ---------------------------------------------------

    def load(self) -> Tuple[Optional[Dict], List[bytes]]:
        """The (checkpoint payload, log tail) this directory held when
        the backend opened it.  Handed over once: the ``ShardWAL``
        that adopts them keeps the only mirror from then on."""
        recovered, self._recovered = self._recovered, (None, [])
        return recovered

    def append_many(self, payloads: Sequence[bytes]) -> None:
        """Log a group of encoded records with one write (see
        :meth:`~repro.storage.log.DurableLog.append_many`)."""
        self._log.append_many(payloads)

    def checkpoint(self, payload: Dict) -> None:
        """Install a checkpoint and roll to a fresh log segment.

        The old segment is synced first so the pre-checkpoint tail is
        durable before anything is superseded; a crash anywhere inside
        the atomic protocol recovers to the old (checkpoint, full log)
        pair, which answers identically.
        """
        self._log.sync()
        new_segment = self._store.write(payload)
        self._log.close()
        self._log = self._open_segment(new_segment)

    def sync(self) -> None:
        self._log.sync()

    def close(self) -> None:
        self._log.close()

    def stats(self) -> Dict:
        return {
            "kind": "file",
            "fsync": self.policy.spec(),
            "log": self._log.stats(),
            "store": self._store.stats(),
        }
