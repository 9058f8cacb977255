"""The soak harness: determinism, concurrency, chaos, durability.

The acceptance-scale run is ``make soak-baseline`` (``python -m repro
soak``); these tests keep the harness honest at a size that runs in
seconds:

* determinism — two single-threaded runs from one seed produce
  byte-identical schedule *and* trace digests, with zero divergences
  (what ``make soak-smoke`` runs from the CLI);
* the multi-threaded mode survives a mid-storm shard kill with zero
  divergences at the quiescent check rounds;
* the durable restart cycle (graceful close + ``restore_from_disk``)
  converges back to the acknowledged catalog;
* the grid scenario is additionally cross-checked by the
  velocity-bucket oracle inside the harness.
"""

import pytest

from repro.errors import DegradedResultWarning
from repro.soak import SoakConfig, run_soak

pytestmark = pytest.mark.soak


def small_config(**overrides) -> SoakConfig:
    base = dict(
        scenario="uniform", n=180, ticks=6, shards=3, replication=2,
        threads=1, subscriptions=6, batch_queries_per_tick=12,
        batch_size=6, check_every=2, queries_per_check=4, seed=77,
    )
    base.update(overrides)
    return SoakConfig(**base)


class TestDeterminism:
    def test_single_threaded_runs_are_byte_identical(self):
        reports = [
            run_soak(small_config(crashes=1, arrivals_per_tick=2,
                                  departures_per_tick=1))
            for _ in range(2)
        ]
        first, second = reports
        assert first.divergences == 0, first.divergence_labels
        assert second.divergences == 0
        assert first.schedule_sha256 == second.schedule_sha256
        assert first.trace_sha256 == second.trace_sha256
        assert first.trace_sha256 is not None
        assert first.ops == second.ops

    def test_write_batch_size_one_is_the_scalar_path(self):
        """``write_batch_size=1`` must be a no-op: the scalar write
        path runs verbatim, so digests match a config that never
        mentions the knob — a regression wall for the batch plumbing."""
        scalar = run_soak(small_config())
        batched_off = run_soak(small_config(write_batch_size=1))
        assert scalar.divergences == batched_off.divergences == 0
        assert scalar.schedule_sha256 == batched_off.schedule_sha256
        assert scalar.trace_sha256 == batched_off.trace_sha256

    def test_write_batch_storms_stay_deterministic(self):
        """Routing write storms through ``apply_batch`` keeps the soak
        deterministic (byte-identical digests across runs) and clean
        under the differential oracles."""
        reports = [
            run_soak(small_config(write_batch_size=8)) for _ in range(2)
        ]
        first, second = reports
        assert first.divergences == 0, first.divergence_labels
        assert second.divergences == 0
        assert first.schedule_sha256 == second.schedule_sha256
        assert first.trace_sha256 == second.trace_sha256
        # Same seed, same schedule as the scalar path: batching is a
        # transport choice, never a workload change.
        scalar = run_soak(small_config())
        assert first.schedule_sha256 == scalar.schedule_sha256

    def test_different_seed_different_schedule(self):
        a = run_soak(small_config(ticks=3))
        b = run_soak(small_config(ticks=3, seed=78))
        assert a.schedule_sha256 != b.schedule_sha256

    def test_multithreaded_schedule_matches_single_threaded(self):
        single = run_soak(small_config(ticks=4))
        multi = run_soak(small_config(ticks=4, threads=3))
        # The generated schedule is seed-pure regardless of thread
        # count; only the trace digest is a single-thread concept.
        assert single.schedule_sha256 == multi.schedule_sha256
        assert multi.trace_sha256 is None


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario", ["city", "grid", "convoy", "adversarial"]
    )
    def test_every_scenario_soaks_clean(self, scenario):
        report = run_soak(small_config(
            scenario=scenario, n=150, arrivals_per_tick=2,
            departures_per_tick=1, crashes=1,
        ))
        assert report.divergences == 0, report.divergence_labels
        assert report.checks["query_checks"] > 0
        assert report.checks["batch_checks"] > 0
        assert report.recovery["crashes"] == 1
        assert report.recovery["recoveries"] == 1

    def test_grid_scenario_exercises_bucket_oracle(self):
        report = run_soak(small_config(scenario="grid", n=120))
        assert report.checks["grid_checks"] > 0
        assert report.divergences == 0, report.divergence_labels

    def test_velocity_router_under_adversarial_skew(self):
        report = run_soak(small_config(
            scenario="adversarial", n=120, router="velocity", crashes=0,
        ))
        assert report.divergences == 0, report.divergence_labels


class TestConcurrency:
    def test_multithreaded_crash_storm_stays_consistent(self):
        # Eight ticks put the two outages apart: shard 1 is down from
        # tick 3 to the end of tick 4, shard 2 from tick 6 to the end of
        # tick 7 (the tick-6 check round runs with it down).  At six
        # ticks shard 2 died in tick 4 with shard 1 still down — the
        # whole replica group of primary 1 — and whether the tick's
        # reader thread was still asking was a race that the
        # DegradedResultWarning-is-an-error rule turned into a flake.
        # With r=2 covering every outage no answer may be partial.
        report = run_soak(small_config(
            n=300, ticks=8, threads=4, crashes=2, shards=4,
            arrivals_per_tick=3, departures_per_tick=2,
            batch_queries_per_tick=24,
        ))
        assert report.divergences == 0, report.divergence_labels
        assert report.recovery["crashes"] == 2
        assert report.recovery["recoveries"] == 2
        assert report.ops["batch_queries"] > 0
        assert report.ops["batch_partial"] == 0
        assert report.ops["rejected_writes"] == 0

    def test_replication_one_degrades_without_diverging(self):
        # r=1 + a crash: writes to the dead shard bounce, reads come
        # back partial — every such check must be skipped, not failed.
        with pytest.warns(DegradedResultWarning):
            report = run_soak(small_config(replication=1, crashes=1))
        assert report.divergences == 0, report.divergence_labels
        assert report.checks["skipped_degraded"] > 0


@pytest.mark.durability
class TestDurableRestart:
    def test_restart_cycle_converges(self, tmp_path):
        report = run_soak(small_config(
            crashes=1, restarts=1, wal_dir=str(tmp_path), fsync="batch:4",
        ))
        assert report.divergences == 0, report.divergence_labels
        assert report.recovery["restarts"] == 1
        assert report.recovery["restored_objects"] > 0
        assert report.checks["restart_checks"] == 1

    def test_restart_requires_wal_dir(self):
        with pytest.raises(ValueError):
            SoakConfig(restarts=1, wal_dir=None)


class TestReport:
    def test_report_roundtrips_to_json(self, tmp_path):
        report = run_soak(small_config(ticks=3))
        path = tmp_path / "BENCH_soak.json"
        report.write_json(str(path))
        import json

        data = json.loads(path.read_text())
        assert data["name"] == "soak"
        assert data["divergences"] == 0
        assert data["determinism"]["schedule_sha256"]
        assert data["throughput"]["write_ops_per_s"] > 0
        assert "report" in data["latency_ms"]
        rendered = report.render()
        assert "divergences: 0" in rendered

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SoakConfig(threads=0)
        with pytest.raises(ValueError):
            SoakConfig(replication=5, shards=4)
        with pytest.raises(ValueError):
            SoakConfig(crashes=1, shards=1)
        # A run with no differential round checks nothing: refuse it.
        with pytest.raises(ValueError):
            SoakConfig(ticks=0)
        with pytest.raises(ValueError):
            SoakConfig(check_every=0)
        with pytest.raises(ValueError):
            SoakConfig(ticks=3, check_every=5)
        assert SoakConfig(ticks=3, check_every=3).check_every == 3
