"""The repo's performance benchmark: one command, every metric by name.

    python benchmarks/perf/run.py --seed 42 [--workload NAME] [--trace]
                                  [--seconds S] [--repeat K] [--out FILE]

With ``--workload`` it runs that workload once in this interpreter and
prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the gated
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``;
all 14 end-to-end metrics are printed above it by name.  Without
``--workload`` it runs all four, each in a fresh interpreter (so peak
memory and caches do not leak between workloads), untraced first and,
with ``--trace``, traced after; ``--repeat K`` does that for seeds
``seed .. seed+K-1``.  ``--out`` collects every run's record —
provenance, phases, sample counts, all 14 end-to-end metrics, layer
shares — into one JSON file, the input of ``compare.py``; with
``--workload`` the file also holds the per-call timings and, traced,
the spans.

Answers are checked against the benchmark's own oracle outside the
timed regions; any wrong, shed, failed or lost operation, and any
difference between the ``answers_sha256`` of ``scan_100k`` and
``pool_100k``, makes the command exit non-zero.

``--scale`` shrinks the populations for the smoke test; scaled numbers
never feed ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_DIR = HERE / ".run"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing ({ROOT / 'src' / 'repro'})")
sys.path.insert(0, str(ROOT / "src"))


def _children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...; comm may hold spaces
                fields = handle.read().rpartition(")")[2].split()
        except OSError:  # gone between listdir and open
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_children(grace_s: float = 5.0) -> None:
    """Leave no process behind, on every path out of the interpreter.

    The program's pool workers are stopped by ``service.close()``; what
    is left is :mod:`multiprocessing`'s resource tracker, started with
    the first shared-memory segment: it ends only when it reads EOF on
    its pipe, so without this it outlives the run by a moment.  Closing
    our end and waiting for it makes the exit synchronous.  Any other
    child still here (a worker that ignored its stop message) keeps the
    pipe open, so those are ended first.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    others = [pid for pid in _children() if pid != tracker_pid]
    for signum in (signal.SIGTERM, signal.SIGKILL):
        for pid in others:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while others and time.monotonic() < deadline:
            for pid in list(others):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        others.remove(pid)
                except ChildProcessError:  # reaped by its owner
                    others.remove(pid)
            if others:
                time.sleep(0.01)
        if not others:
            break
    if tracker_pid is not None:
        tracker._stop()  # closes the pipe, then waitpid()s the tracker


# Registered before anything of multiprocessing or the program is
# imported: atexit runs last-in first-out, so this runs after their own
# exit hooks (the pool's close, the shared-memory sweep) have finished.
# Only as a program: an importer's children are its own.
if __name__ == "__main__":
    atexit.register(_stop_children)

from catalog import END_TO_END, GATED, PER_LAYER  # noqa: E402
from workloads import RUN_SECONDS, WORKLOAD_NAMES  # noqa: E402


def provenance(args) -> Dict[str, object]:
    import numpy
    from harness import WAL_FSYNC

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "host": {
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "git": revision,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "wal_fsync": WAL_FSYNC,
    }


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # another run is using it, or it is already gone
        pass


def run_one(args) -> int:
    """One workload in this interpreter; the result line comes last."""
    import harness
    import layers
    import spans

    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = harness.Run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale, str(run_dir))
    digest = run.schedule.digest()
    run.execute()

    measured = run.end_to_end()
    if args.trace:
        values = layers.per_layer_metrics(run)
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": measured[m.name], "unit": m.unit}
                   for m in GATED}
    record = {
        "workload": args.workload,
        "trace": int(bool(args.trace)),
        **provenance(args),
        "schedule_sha256": digest,
        "answers_sha256": run.answers_sha256,
        "end_to_end": measured,
        "phases": {name: phase.summary()
                   for name, phase in run.phases.items()},
        "checks": run.checks,
        "leaked_segments": run.leaked_segments,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if args.trace:
        record["untraced_phases"] = {
            name: phase.summary() for name, phase in run.untraced.items()
        }
        record["layer_shares"] = layers.layer_shares(run)
        seen = layers.SpanView(run).everything
        record["span_counts"] = {
            name: len(seen.get(name, ()))
            for name in (*seen, *spans.SPAN_NAMES)
        }

    print(f"perf: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={int(bool(args.trace))} "
          f"scale={args.scale:g} wal_fsync={record['wal_fsync']}")
    host = record["host"]
    print(f"host: cores={host['usable_cores']} python={host['python']} "
          f"numpy={host['numpy']} platform={host['platform']} "
          f"git={record['git']}")
    print(f"schedule_sha256={digest}")
    print(f"answers_sha256={run.answers_sha256}")
    for name, phase in record["phases"].items():
        detail = " ".join(
            f"{key}={value:.4g}" if isinstance(value, float)
            else f"{key}={value}" for key, value in phase.items())
        print(f"phase {name}: {detail}")
    for name, shares in record.get("layer_shares", {}).items():
        detail = " ".join(f"{layer}={share:.1%}"
                          for layer, share in shares.items())
        print(f"share {name}: {detail}")
    if args.trace:
        for m in PER_LAYER:
            print(f"metric {m.name} = {values[m.name]:.6g} {m.unit} "
                  f"({m.better} is better)")
    else:
        for m in END_TO_END:
            value = measured[m.name]
            shown = "n/a" if value is None else f"{value:.6g}"
            bound = "exact per seed" if m.exact else f"bound {m.bound:.0%}"
            gate = (f"gated at {m.gate:.0%}" if m.gate is not None
                    else f"to the driver as {m.per_layer_name}")
            print(f"metric {m.name} = {shown} {m.unit} "
                  f"({m.better} is better, {bound}; {gate})")
    if run.checks:
        print(f"FAILED checks: {run.checks}")
    if args.out:
        # The raw material, for trying another estimator on the same run.
        record["calls"] = {
            name: {"slices": phase.slices, "rounds": phase.rounds,
                   "by_verb": phase.by_verb}
            for name, phase in run.phases.items()
        }
        if args.trace:
            record["spans"] = run.tracer.export()
        with open(args.out, "w") as handle:
            json.dump(record, handle)
    print(json.dumps({
        "correct": record["correct"], "attempted": run.attempted,
        "failed": run.failed, "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one table at the end."""
    RUN_DIR.mkdir(exist_ok=True)
    records: List[Dict] = []
    status = 0
    passes = [0, 1] if args.trace else [0]
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for workload in WORKLOAD_NAMES:
            for traced in passes:
                part = RUN_DIR / f"part-{os.getpid()}-{len(records)}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(traced),
                    "--scale", str(args.scale), "--out", str(part),
                ]
                started = time.perf_counter()
                done = subprocess.run(command, capture_output=True, text=True)
                took = time.perf_counter() - started
                if part.exists():
                    record = json.loads(part.read_text())
                    part.unlink()
                    for bulky in ("spans", "calls"):
                        record.pop(bulky, None)
                    records.append(record)
                verdict = "ok" if done.returncode == 0 else "FAILED"
                print(f"[{took:6.1f}s] {workload} seed={seed} "
                      f"trace={traced}: {verdict}", flush=True)
                if done.returncode != 0:
                    status = 1
                    sys.stdout.write(done.stdout[-4000:])
                    sys.stderr.write(done.stderr[-4000:])
    if cross_check(records):
        status = 1
    print_table(records)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": records}, handle, indent=1)
    _remove_if_empty(RUN_DIR)
    return status


def cross_check(records: List[Dict]) -> int:
    """``pool_100k`` must answer its first reads exactly as ``scan_100k``
    does (same seed, same inputs).  A difference is booked on the pool's
    record as a failed check; returns how many there were."""
    by_key = {(r["workload"], r["seed"], r["trace"]): r for r in records}
    different = 0
    for (workload, seed, traced), record in by_key.items():
        twin = by_key.get(("scan_100k", seed, traced))
        if workload != "pool_100k" or twin is None:
            continue
        same = record["answers_sha256"] == twin["answers_sha256"]
        print(f"answers_sha256 seed={seed} trace={traced}: pool_100k vs "
              f"scan_100k {'equal' if same else 'DIFFERENT'}")
        if not same:
            different += 1
            record["checks"]["answers_sha256_vs_scan_100k"] = 1
            record["failed"] += 1
            record["correct"] = False
            record["end_to_end"]["failed_share"] = (
                record["failed"] / record["attempted"])
    return different


def print_table(records: List[Dict]) -> None:
    """Median over the repeats of every metric, one column per workload."""
    import statistics

    def table(title: str, rows: List[Dict], names, value) -> None:
        if not rows:
            return
        print(f"\n{title}: median of {len(rows) // len(WORKLOAD_NAMES)} "
              f"run(s) per workload")
        print(f"{'metric':38}{'unit':>11}" + "".join(
            f"{name:>16}" for name in WORKLOAD_NAMES))
        for m in names:
            cells = []
            for workload in WORKLOAD_NAMES:
                values = [value(r, m) for r in rows
                          if r["workload"] == workload]
                values = [v for v in values if v is not None]
                cells.append(f"{statistics.median(values):16.5g}"
                             if values else f"{'n/a':>16}")
            print(f"{m.name:38}{m.unit:>11}" + "".join(cells))

    table("end to end", [r for r in records if r["trace"] == 0],
          END_TO_END, lambda r, m: r["end_to_end"][m.name])
    table("per layer (traced)", [r for r in records if r["trace"] == 1],
          PER_LAYER, lambda r, m: r["metrics"][m.name]["value"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="measured seconds per run (set-up excluded)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population scale (smoke test only)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="seeds to run when no --workload is given")
    parser.add_argument("--out", help="write the full record(s) as JSON")
    args = parser.parse_args()
    if args.seconds <= 0 or args.scale <= 0 or args.repeat < 1:
        parser.error("--seconds, --scale and --repeat must be positive")
    # A polite kill unwinds like any other exit: finally blocks, atexit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload:
        try:
            return run_one(args)
        finally:
            _remove_if_empty(RUN_DIR)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
