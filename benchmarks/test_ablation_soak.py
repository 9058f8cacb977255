"""Ablation: one soak run per production-shaped scenario (ISSUE 7).

One small soak run per scenario generator — identical harness budget
(objects, ticks, churn, batched queries, live subscriptions, one
crash/recovery cycle), only the workload shape varies.  The table
records the check and divergence totals, so a regression in any one
scenario's path (route network, integer grid + bucket oracle, convoy
drift, adversarial skew) shows up as a change in
``BENCH_soak_scenarios.json``.  It keeps only those deterministic
columns: a seeded run repeats them exactly, while its write rate and
query latency move with the host from one run to the next.  Every run
must still write (a positive write rate on its report) and report zero
divergences — the same differential contract ``make soak-smoke`` gates
on.
"""

from repro.bench import Table
from repro.soak import SoakConfig, run_soak
from repro.workloads import SCENARIO_NAMES

from conftest import save_table

N = 400
TICKS = 8


def run_scenario_sweep():
    """The table of check totals, and each scenario's soak report."""
    table = Table(headers=[
        "scenario", "query_checks", "grid_checks", "divergences",
    ])
    reports = []
    for scenario in SCENARIO_NAMES:
        report = run_soak(SoakConfig(
            scenario=scenario, n=N, ticks=TICKS, shards=3, replication=2,
            subscriptions=8, batch_queries_per_tick=24, batch_size=8,
            arrivals_per_tick=4, departures_per_tick=2, crashes=1,
            check_every=2, queries_per_check=6, seed=42,
        ))
        table.rows.append([
            scenario,
            report.checks["query_checks"],
            report.checks["grid_checks"],
            report.divergences,
        ])
        reports.append(report)
    return table, reports


def test_soak_scenarios(benchmark):
    table, reports = benchmark.pedantic(
        run_scenario_sweep, rounds=1, iterations=1
    )
    print(save_table(
        "soak_scenarios", table,
        "Ablation: soak harness checks per workload scenario"
    ))
    scenarios = table.column("scenario")
    assert list(scenarios) == list(SCENARIO_NAMES)
    assert all(report.write_ops_per_s > 0 for report in reports)
    # The differential contract: every scenario soaks clean.
    assert all(report.divergences == 0 for report in reports)
    # Only the grid scenario carries the bucket-oracle cross-check.
    by_name = dict(zip(scenarios, table.column("grid_checks")))
    assert by_name["grid"] > 0
    assert all(v == 0 for k, v in by_name.items() if k != "grid")
