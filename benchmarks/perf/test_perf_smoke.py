"""Smoke test of the perf harness: ``pytest benchmarks/perf`` (< 30 s).

One ``--scale 0.02`` pass over all four workloads, untraced and traced,
asserting that every metric name in ``BENCHMARK.json`` and each of the
issue's 14 end-to-end names is reported with its unit, that the oracle
passed, that each layer works where it is meant to and idles where it
is not, that the restart drill replays a log tail and drops unsynced
bytes, and that nothing is left behind.  Not collected by tier-1
(``testpaths = ["tests"]``); scaled numbers never feed
``BENCHMARK.json``.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import catalog  # noqa: E402
import run as perf_run  # noqa: E402


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.02",
         "--seconds", "1", "--seed", "7", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())["runs"]


def test_every_metric_is_reported_with_its_unit(runs):
    _, records = runs
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in records) == sorted(
        (name, traced) for name in names for traced in (0, 1))
    for record in records:
        listed = BENCHMARK["per_layer" if record["trace"] else "end_to_end"]
        assert {m["name"]: m["unit"] for m in listed} == {
            name: m["unit"] for name, m in record["metrics"].items()}
        if not record["trace"]:
            assert all(m["value"] > 0 for m in record["metrics"].values())
        # The issue's 14, on the workloads that have them.
        measured = record["end_to_end"]
        assert list(measured) == [m.name for m in catalog.END_TO_END]
        for m in catalog.END_TO_END:
            assert (measured[m.name] is not None) == (
                record["workload"] in m.on), (record["workload"], m.name)


def test_oracle_passed_and_nothing_is_left_behind(runs):
    _, records = runs
    for record in records:
        assert record["correct"] and record["failed"] == 0, record["checks"]
        assert record["end_to_end"]["failed_share"] == 0
        assert record["leaked_segments"] == []
        assert record["schedule_sha256"]
        for key in ("host", "git", "seed", "seconds", "wal_fsync"):
            assert key in record
    assert not (HERE / ".run").exists()
    if os.path.isdir("/dev/shm"):
        assert not [n for n in os.listdir("/dev/shm")
                    if n.startswith("repro-cols-")]
    plain = {r["workload"]: r for r in records if not r["trace"]}
    assert (plain["scan_100k"]["answers_sha256"]
            == plain["pool_100k"]["answers_sha256"])
    assert (plain["scan_100k"]["schedule_sha256"]
            == plain["pool_100k"]["schedule_sha256"])


def _in_session(sid: int):
    """Command lines of the processes of session ``sid``, zombies too
    (an orphan that has ended but was not waited for shows as one)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
            fields = stat.rpartition(")")[2].split()
            if int(fields[3]) == sid:
                found.append(fields[0] + " " + (
                    Path("/proc") / entry / "cmdline"
                ).read_text().replace("\0", " "))
        except OSError:  # gone meanwhile
            continue
    return found


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_process_outlives_a_pool_run():
    """The pool's workers *and* multiprocessing's resource tracker have
    ended *and been waited for* by the time the command returns (looked
    at straight away: the tracker would go by itself a moment later)."""
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "pool_100k",
         "--scale", "0.02", "--seconds", "1", "--seed", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    output, _ = done.communicate(timeout=120)
    assert _in_session(done.pid) == []
    assert done.returncode == 0, output
    assert json.loads(output.splitlines()[-1])["correct"]


def test_a_differing_answers_digest_fails_the_run(runs):
    _, records = runs
    records = copy.deepcopy(records)
    assert perf_run.cross_check(records) == 0
    pool = next(r for r in records
                if r["workload"] == "pool_100k" and not r["trace"])
    pool["answers_sha256"] = "0" * 64
    assert perf_run.cross_check(records) == 1
    assert not pool["correct"] and pool["failed"] == 1
    assert pool["checks"] == {"answers_sha256_vs_scan_100k": 1}
    assert pool["end_to_end"]["failed_share"] > 0


def test_each_layer_works_on_one_workload_and_idles_on_another(runs):
    _, records = runs
    traced = {r["workload"]: {k: m["value"] for k, m in r["metrics"].items()}
              for r in records if r["trace"]}
    assert traced["scan_100k"]["cache.hit_ratio"] == 0
    assert traced["hot_mixed_10k"]["cache.hit_ratio"] > 0
    assert traced["scan_100k"]["parallel.tasks"] == 0
    assert traced["pool_100k"]["parallel.tasks"] > 0
    for name in ("scan_100k", "pool_100k"):
        assert traced[name]["wal.appends"] == 0
    assert traced["durable_10k"]["wal.appends"] > 0
    fired = {}
    for record in records:
        for name, count in record.get("span_counts", {}).items():
            fired[name] = fired.get(name, 0) + count
    assert fired and all(fired.values()), [n for n, c in fired.items() if not c]
    shares = {r["workload"]: r["layer_shares"] for r in records if r["trace"]}
    for workload, tops in shares.items():
        for top, by_layer in tops.items():
            assert by_layer["(harness)"] < 0.2, (workload, top, by_layer)


def test_restart_replays_a_log_tail_and_loses_only_unsynced_bytes(runs):
    _, records = runs
    for record in records:
        if record["workload"] != "durable_10k":
            continue
        drill = record["phases"]["restart"]
        assert drill["lost_synced_writes"] == 0
        assert drill["restart_s"] > 0
        assert drill["recovered_records"] > 0
        assert drill["dropped_unsynced_bytes"] > 0
        assert drill["unsynced_reports_kept"] < drill["unsynced_reports"]


def test_benchmark_json_is_the_catalog():
    assert BENCHMARK == catalog.benchmark_json()
    for m in BENCHMARK["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


def test_compare_accepts_a_run_against_itself(runs):
    out, _ = runs
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout and "DIFFERENT" not in done.stdout
