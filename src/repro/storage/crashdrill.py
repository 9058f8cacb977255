"""The SIGKILL crash drill: real process death, real recovery.

Everything else in the durability suite injects crashes *in process*
(:class:`~repro.service.faults.CrashPointInjector`); this module is
the end-to-end proof with no simulation in the loop:

1. spawn a child process running a WAL-backed
   :class:`~repro.service.replication.FaultTolerantMotionService`
   under a write storm — scalar reports alternating with
   ``apply_batch`` groups, so the kill can land in a grouped log
   append too — each write announced on stdout as a ``TRY`` line
   before it is applied and an ``ACK`` line once the service
   acknowledged it;
2. after a configured number of ACKs, SIGKILL the child mid-storm —
   no atexit, no flushing of the process's own buffers (the kernel's
   page cache survives, as it would not a power cut);
3. rebuild a fresh service over the same directory
   (:meth:`restore_from_disk`) and differential-check it against the
   TRY/ACK record: every acknowledged update must have survived (a
   SIGKILL keeps the kernel's page cache, so this holds under every
   fsync policy — only a power cut could lose an unsynced write),
   every recovered motion must be one the child actually attempted
   (nothing invented), and per object the recovered version is at
   least as new as the last acknowledged one.

Run it directly (``python -m repro.storage.crashdrill``) or via
``make durability-smoke``.  Exit status: 0 = drill passed, 1 = lost
or corrupted committed state, or no shard's ``MANIFEST`` shows a
checkpoint from before the kill, 2 = drill could not run.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.storage.checkpoint import CheckpointStore

#: §5 motion parameters (the workload generator's defaults).
Y_MAX = 1000.0
V_MIN = 0.16
V_MAX = 1.66

#: Reports per ``apply_batch`` group in the storm.
GROUP_OPS = 8


def _build_service(directory: str, fsync: str, shards: int,
                   router: str = "hash"):
    from repro.service.replication import FaultTolerantMotionService

    return FaultTolerantMotionService(
        Y_MAX,
        V_MIN,
        V_MAX,
        shards=shards,
        replication_factor=1,
        router=router,
        wal_dir=directory,
        wal_fsync=fsync,
    )


# -- child: the write storm ------------------------------------------------------


def run_child(directory: str, fsync: str, shards: int, objects: int,
              seed: int, rebalance: bool = False) -> int:
    """Announce-then-apply write storm; runs until killed.

    Timestamps are the global write sequence number, strictly
    monotone, so "same t0" implies "same write" and the parent's
    differential check can match versions exactly.  Positions and
    velocities are seeded, so a surviving child is reproducible.

    After the registrations, each round is one scalar ``report`` and
    one ``apply_batch`` of :data:`GROUP_OPS` reports.  A group's writes
    are all announced before the call and each applied one is
    acknowledged when it returns: the fault-tolerant batch path syncs
    every touched shard before returning.

    ``rebalance=True`` switches to a velocity-routed service and
    interleaves the storm with live repartitioning: every other round
    the band layout toggles between two cuts and ``rehome`` moves the
    objects the new cut displaced, one write set, so the SIGKILL often
    lands mid-move.  A move never changes acknowledged motion, so the
    parent's TRY/ACK differential applies unchanged; the parent
    additionally asserts exactly-one-shard residency after recovery.
    """
    import itertools
    import random

    from repro.vector.ops import ReportOp

    rng = random.Random(seed)
    service = _build_service(
        directory, fsync, shards, router="velocity" if rebalance else "hash"
    )
    out = sys.stdout
    seq = 0

    def announce(oid: int, y0: float, v: float, t0: float) -> None:
        out.write(f"TRY {oid} {y0!r} {v!r} {t0!r}\n")
        out.flush()

    def acknowledge(oid: int, t0: float) -> None:
        out.write(f"ACK {oid} {t0!r}\n")
        out.flush()

    def draw_speed() -> float:
        v = rng.uniform(V_MIN, V_MAX)
        return v * (1 if rng.random() < 0.5 else -1)

    def draw_report() -> ReportOp:
        nonlocal seq
        seq += 1
        op = ReportOp(rng.randrange(objects), rng.uniform(0.0, Y_MAX),
                      draw_speed(), float(seq))
        announce(op.oid, op.y0, op.v, op.t0)
        return op

    layouts = None
    if rebalance:
        # Two cuts that disagree about the middle of the speed range:
        # toggling keeps a steady stream of moves in flight for the
        # SIGKILL to land inside.
        even = tuple(V_MAX * i / shards for i in range(1, shards))
        squeezed = tuple(
            V_MAX * 0.35 * i / shards for i in range(1, shards)
        )
        layouts = itertools.cycle([squeezed, even])

    for oid in range(objects):
        seq += 1
        y0 = rng.uniform(0.0, Y_MAX)
        v = draw_speed()
        announce(oid, y0, v, float(seq))
        service.register(oid, y0, v, float(seq))
        acknowledge(oid, float(seq))
    for rounds in itertools.count(1):  # the parent's SIGKILL is the exit
        op = draw_report()
        service.report(op.oid, op.y0, op.v, op.t0)
        acknowledge(op.oid, op.t0)
        group = [draw_report() for _ in range(GROUP_OPS)]
        for op, refused in zip(group, service.apply_batch(group)):
            if refused is None:
                acknowledge(op.oid, op.t0)
        if layouts is not None and rounds % 2 == 0:
            service.set_bands(next(layouts))
            service.rehome(range(objects))


# -- parent: kill, recover, differential-check -----------------------------------


def _parse_lines(
    lines: List[str],
) -> Tuple[Dict[int, Dict[float, Tuple[float, float]]], Dict[int, float]]:
    """``(tried, acked)`` from the child's transcript.

    ``tried[oid][t0] = (y0, v)`` for every announced write;
    ``acked[oid]`` is the newest acknowledged ``t0`` per object.
    """
    tried: Dict[int, Dict[float, Tuple[float, float]]] = {}
    acked: Dict[int, float] = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "TRY":
            oid = int(parts[1])
            tried.setdefault(oid, {})[float(parts[4])] = (
                float(parts[2]), float(parts[3])
            )
        elif len(parts) == 3 and parts[0] == "ACK":
            oid, t0 = int(parts[1]), float(parts[2])
            acked[oid] = max(acked.get(oid, t0), t0)
    return tried, acked


def run_drill(directory: Optional[str], fsync: str, shards: int,
              objects: int, kill_after_acks: int, seed: int,
              timeout_s: float, rebalance: bool = False) -> int:
    """The full drill; returns the process exit status."""
    own_dir = directory is None
    if own_dir:
        directory = tempfile.mkdtemp(prefix="repro-crashdrill-")
    print(f"crashdrill: dir={directory} fsync={fsync} shards={shards} "
          f"objects={objects} kill_after_acks={kill_after_acks} "
          f"seed={seed} rebalance={rebalance}")

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.storage.crashdrill", "--child",
         "--dir", directory, "--fsync", fsync,
         "--shards", str(shards), "--objects", str(objects),
         "--seed", str(seed)]
        + (["--rebalance"] if rebalance else []),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    lines: List[str] = []
    acks = 0
    deadline = time.monotonic() + timeout_s
    try:
        for line in child.stdout:
            lines.append(line)
            if line.startswith("ACK"):
                acks += 1
                if acks >= kill_after_acks:
                    break
            if time.monotonic() > deadline:
                break
    finally:
        # SIGKILL mid-storm: the child gets no chance to flush or
        # close anything.
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
    # Drain the tail through the SAME file object the loop iterated:
    # the iterator read ahead of the break point, and communicate()
    # reads the raw fd — it would silently drop whatever TRY/ACK
    # lines are still sitting in that read-ahead buffer, making the
    # differential check see "recovered but never attempted" ghosts.
    for line in child.stdout:
        lines.append(line)
    stderr = child.stderr.read()
    child.wait()
    if acks < kill_after_acks:
        print(f"crashdrill: child died early after {acks} ACKs",
              file=sys.stderr)
        if stderr.strip():
            print(stderr, file=sys.stderr)
        return 2
    tried, acked = _parse_lines(lines)
    print(f"crashdrill: killed child after {acks} ACKs "
          f"({sum(len(v) for v in tried.values())} TRYs seen)")

    # Read before the restore, which checkpoints every shard itself.
    installed = [CheckpointStore(os.path.join(directory, f"shard-{i:02d}")).seq
                 for i in range(shards)]
    service = _build_service(
        directory, fsync, shards,
        router="velocity" if rebalance else "hash",
    )
    summary = service.restore_from_disk()
    recovered = service.motion_snapshot()
    populations = service.shard_populations()
    owner_of = {oid: service.shard_of(oid) for oid in recovered}
    service.close()
    print(f"crashdrill: recovered {summary['objects']} objects "
          f"(reconciled={summary['reconciled']} "
          f"dropped={summary['dropped']}"
          + (f" bands_epoch={summary['bands_epoch']}" if rebalance else "")
          + ")")
    for shard, (seq, restored) in enumerate(zip(installed,
                                                 summary["shards"])):
        print(f"crashdrill: shard-{shard:02d} manifest_seq={seq} "
              f"replayed={restored['replayed']}")

    failures: List[str] = []
    if not any(installed):
        failures.append("no shard installed a checkpoint before the kill: "
                        "the drill never crossed one")
    if rebalance:
        # Exactly-one-shard: a SIGKILL inside a move must never fork
        # ownership (replication_factor is 1 here, so every object is
        # resident on exactly its owner shard).
        for oid in sorted(recovered):
            holders = [
                shard for shard, pop in enumerate(populations)
                if oid in pop
            ]
            if holders != [owner_of[oid]]:
                failures.append(
                    f"object {oid}: resident on shards {holders}, "
                    f"catalog owner is {owner_of[oid]}"
                )
    for oid, last_acked in sorted(acked.items()):
        motion = recovered.get(oid)
        if motion is None:
            failures.append(f"object {oid}: acknowledged but lost")
            continue
        if motion.t0 < last_acked:
            failures.append(
                f"object {oid}: recovered t0={motion.t0} older than "
                f"last acknowledged t0={last_acked}"
            )
        attempted = tried.get(oid, {}).get(motion.t0)
        if attempted is None:
            failures.append(
                f"object {oid}: recovered version t0={motion.t0} was "
                "never attempted"
            )
        elif attempted != (motion.y0, motion.v):
            failures.append(
                f"object {oid}: recovered motion {motion} does not "
                f"match the attempted write {attempted}"
            )
    for oid in sorted(set(recovered) - set(tried)):
        failures.append(f"object {oid}: recovered but never attempted")

    if failures:
        print(f"crashdrill: FAIL — {len(failures)} violations",
              file=sys.stderr)
        for failure in failures[:20]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"crashdrill: PASS — all {len(acked)} acknowledged objects "
          "survived SIGKILL, nothing invented")
    if own_dir:
        import shutil

        shutil.rmtree(directory, ignore_errors=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.crashdrill",
        description="SIGKILL a WAL-backed service mid-write-storm and "
                    "verify recovery lost no committed update",
    )
    parser.add_argument("--dir", default=None,
                        help="WAL directory (default: a fresh tempdir, "
                             "removed on success)")
    parser.add_argument("--fsync", default="always",
                        metavar="{always,batch[:N],never}",
                        help="log fsync policy (a SIGKILL keeps the page "
                             "cache, so the zero-loss check applies to "
                             "every policy)")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--objects", type=int, default=40)
    parser.add_argument("--kill-after-acks", type=int, default=200,
                        help="ACKed writes to observe before SIGKILL")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="drill timeout in seconds")
    parser.add_argument("--rebalance", action="store_true",
                        help="interleave live band re-cuts + rehome "
                             "moves with the storm, so the SIGKILL can "
                             "land mid-move; adds the exactly-one-shard "
                             "ownership check")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        if args.dir is None:
            parser.error("--child requires --dir")
        return run_child(args.dir, args.fsync, args.shards, args.objects,
                         args.seed, rebalance=args.rebalance)
    return run_drill(args.dir, args.fsync, args.shards, args.objects,
                     args.kill_after_acks, args.seed, args.timeout,
                     rebalance=args.rebalance)


if __name__ == "__main__":
    sys.exit(main())
