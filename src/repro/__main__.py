"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro figures            # Figures 6-9 (scaled regime)
    python -m repro figures --sizes 500 1000 --ticks 20
    python -m repro csweep             # the eq. (2) c tradeoff
    python -m repro mor1               # Theorem 2 space/query behaviour
    python -m repro soak --scenario city --crashes 1   # whole-stack oracle
    python -m repro list               # registered index methods

The figure tables match what ``pytest benchmarks/ --benchmark-only``
writes to ``benchmarks/results/``; the CLI is for interactive poking.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.bench import Table, default_methods, run_sweep
from repro.indexes import INDEX_REGISTRY
from repro.soak import SoakConfig, run_soak
from repro.workloads import LARGE_QUERIES, SCENARIO_NAMES, SMALL_QUERIES


def _cmd_figures(args: argparse.Namespace) -> int:
    import os

    methods = default_methods(forest_cs=tuple(args.c))

    def emit(table: Table, title: str, stem: str) -> None:
        print(table.render(title))
        print()
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            table.save_csv(os.path.join(args.csv, f"{stem}.csv"))

    for qclass in (LARGE_QUERIES, SMALL_QUERIES):
        sweep = run_sweep(
            methods,
            sizes=args.sizes,
            query_class=qclass,
            ticks=args.ticks,
            update_rate=args.update_rate,
            seed=args.seed,
        )
        if qclass is LARGE_QUERIES:
            emit(sweep.metric_table("avg_query_io"),
                 "Figure 6: query I/O (10% queries)", "fig6")
            emit(sweep.metric_table("space_pages"),
                 "Figure 8: space (pages)", "fig8")
            emit(sweep.metric_table("avg_update_io"),
                 "Figure 9: update I/O", "fig9")
        else:
            emit(sweep.metric_table("avg_query_io"),
                 "Figure 7: query I/O (1% queries)", "fig7")
    return 0


def _cmd_csweep(args: argparse.Namespace) -> int:
    from repro.indexes import HoughYForestIndex
    from repro.workloads import WorkloadGenerator

    gen = WorkloadGenerator(seed=args.seed)
    objects = gen.initial_population(args.n)
    queries = [gen.query(SMALL_QUERIES, now=40.0) for _ in range(100)]
    table = Table(headers=["c", "fetched", "exact", "waste", "pages"])
    for c in args.c:
        forest = HoughYForestIndex(gen.model, c=c)
        for obj in objects:
            forest.insert(obj)
        fetched = exact = 0
        for query in queries:
            f, e = forest.approximation_overhead(query)
            fetched += f
            exact += e
        table.rows.append([
            c, fetched, exact,
            round((fetched - exact) / max(exact, 1), 2),
            forest.pages_in_use,
        ])
    print(table.render("Equation (2) tradeoff: observation indexes c"))
    return 0


def _cmd_mor1(args: argparse.Namespace) -> int:
    import random

    from repro.core import LinearMotion1D, MOR1Query, MobileObject1D
    from repro.kinetic import MOR1Index

    rng = random.Random(args.seed)
    table = Table(headers=["N", "crossings", "pages", "avg_query_io"])
    for n in args.sizes:
        objects = [
            MobileObject1D(
                oid,
                LinearMotion1D(
                    rng.uniform(0, 1000), rng.uniform(0.8, 1.2), 0.0
                ),
            )
            for oid in range(n)
        ]
        index = MOR1Index(objects, t_start=0.0, window=40.0, page_capacity=16)
        total = 0
        for _ in range(40):
            y1 = rng.uniform(0, 990)
            index.disk.clear_buffer()
            before = index.disk.stats.snapshot()
            index.query(MOR1Query(y1, y1 + 10, rng.uniform(0, 40)))
            total += (index.disk.stats.snapshot() - before).reads
        table.rows.append(
            [n, index.crossing_count, index.pages_in_use, round(total / 40, 1)]
        )
    print(table.render("Theorem 2: MOR1 space and query scaling"))
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    import os

    results_dir = args.results
    if not os.path.isdir(results_dir):
        print(f"no results directory at {results_dir}; "
              "run `pytest benchmarks/ --benchmark-only` first")
        return 1
    names = sorted(
        name for name in os.listdir(results_dir) if name.endswith(".txt")
    )
    sections = []
    for name in names:
        with open(os.path.join(results_dir, name)) as handle:
            sections.append(handle.read().rstrip())
    report = "\n\n".join(sections) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"wrote {len(names)} result tables to {args.output}")
    else:
        print(report)
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """``soak``: the full-stack concurrent soak under differential
    oracles (exit 2 on a bad config, 3 on any divergence)."""
    fields = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(SoakConfig)
        if hasattr(args, field.name)
    }
    try:
        report = run_soak(SoakConfig(**fields))
    except ValueError as error:
        print(f"soak: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        report.write_json(args.json)
        print(f"wrote {args.json}")
    if not report.ok:
        print(
            "soak: DIVERGED from the differential oracles: "
            f"{report.divergence_labels[:10]}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("registered 1-D index methods:")
    for name in sorted(INDEX_REGISTRY):
        print(f"  {name:20s} {INDEX_REGISTRY[name].__doc__.splitlines()[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'On Indexing Mobile Objects' (PODS 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate Figures 6-9")
    figures.add_argument("--sizes", type=int, nargs="+",
                         default=[1000, 2000, 4000])
    figures.add_argument("--ticks", type=int, default=40)
    figures.add_argument("--update-rate", type=float, default=0.002)
    figures.add_argument("--seed", type=int, default=42)
    figures.add_argument("-c", type=int, nargs="+", default=[4, 6, 8],
                         help="forest observation-index counts")
    figures.add_argument("--csv", metavar="DIR", default=None,
                         help="also write each table as CSV into DIR")
    figures.set_defaults(func=_cmd_figures)

    csweep = sub.add_parser("csweep", help="equation (2) c tradeoff")
    csweep.add_argument("-n", type=int, default=3000)
    csweep.add_argument("-c", type=int, nargs="+", default=[2, 4, 8, 16])
    csweep.add_argument("--seed", type=int, default=7)
    csweep.set_defaults(func=_cmd_csweep)

    mor1 = sub.add_parser("mor1", help="Theorem 2 scaling")
    mor1.add_argument("--sizes", type=int, nargs="+",
                      default=[250, 1000, 4000])
    mor1.add_argument("--seed", type=int, default=29)
    mor1.set_defaults(func=_cmd_mor1)

    # Every flag is one SoakConfig field (dest = field name, default =
    # the dataclass default), plus --json for the report path.
    cfg = SoakConfig()
    soak = sub.add_parser(
        "soak",
        help="full-stack soak: scenario-shaped writes, batch queries, "
             "live subscriptions and injected crashes/restarts, every "
             "answer differential-checked (exit 3 on divergence)",
    )
    soak.add_argument("--scenario", default=cfg.scenario,
                      choices=SCENARIO_NAMES, help="workload shape")
    soak.add_argument("--n", type=int, default=cfg.n,
                      help="initial object population")
    soak.add_argument("--ticks", type=int, default=cfg.ticks,
                      help="clock advances")
    soak.add_argument("--updates", dest="updates_per_tick", type=int,
                      default=cfg.updates_per_tick,
                      help="motion reports per tick (default: n // 50)")
    soak.add_argument("--arrivals", dest="arrivals_per_tick", type=int,
                      default=cfg.arrivals_per_tick,
                      help="open-system arrivals per tick")
    soak.add_argument("--departures", dest="departures_per_tick", type=int,
                      default=cfg.departures_per_tick,
                      help="open-system departures per tick")
    soak.add_argument("--shards", type=int, default=cfg.shards)
    soak.add_argument("--replication", type=int, default=cfg.replication,
                      help="copies per object")
    soak.add_argument("--method", default=cfg.method,
                      choices=["forest", "kdtree"])
    soak.add_argument("--router", default=cfg.router,
                      choices=["hash", "velocity"])
    soak.add_argument("--threads", type=int, default=cfg.threads,
                      help="writer threads; 1 = deterministic trace")
    soak.add_argument("--queries", dest="batch_queries_per_tick", type=int,
                      default=cfg.batch_queries_per_tick,
                      help="batched queries per tick")
    soak.add_argument("--batch-size", type=int, default=cfg.batch_size,
                      help="queries per query_batch call")
    soak.add_argument("--subs", dest="subscriptions", type=int,
                      default=cfg.subscriptions,
                      help="standing subscriptions")
    soak.add_argument("--horizon", type=float, default=cfg.horizon,
                      help="sliding-window length of 'within' "
                           "subscriptions")
    soak.add_argument("--crashes", type=int, default=cfg.crashes,
                      help="scheduled mid-storm shard kills, each "
                           "recovered by WAL replay")
    soak.add_argument("--restarts", type=int, default=cfg.restarts,
                      help="graceful shutdown + restore_from_disk "
                           "cycles; needs --wal-dir")
    soak.add_argument("--rebalances", type=int, default=cfg.rebalances,
                      help="live repartitioning passes at scheduled "
                           "quiescent ticks; needs --router velocity")
    soak.add_argument("--check-every", type=int, default=cfg.check_every,
                      help="differential-oracle round every N ticks")
    soak.add_argument("--wal-dir", metavar="PATH", default=cfg.wal_dir,
                      help="durable per-shard WALs + checkpoints under "
                           "PATH")
    soak.add_argument("--fsync", default=cfg.fsync,
                      metavar="{always,batch[:N],never}",
                      help="durable-log fsync policy (with --wal-dir)")
    soak.add_argument("--write-batch", dest="write_batch_size", type=int,
                      default=cfg.write_batch_size,
                      help="write ops per apply_batch call; 1 = scalar "
                           "write path")
    soak.add_argument("--pool-workers", dest="workers", type=int,
                      default=cfg.workers,
                      help="worker-process pool width (0 = in-process)")
    soak.add_argument("--seed", type=int, default=cfg.seed)
    soak.add_argument("--json", metavar="PATH", default=None,
                      help="also write the machine-readable report to "
                           "PATH")
    soak.set_defaults(func=_cmd_soak)

    listing = sub.add_parser("list", help="list registered index methods")
    listing.set_defaults(func=_cmd_list)

    collect = sub.add_parser(
        "collect-results",
        help="concatenate benchmarks/results/*.txt into one report",
    )
    collect.add_argument("--results", default="benchmarks/results")
    collect.add_argument("--output", "-o", default=None)
    collect.set_defaults(func=_cmd_collect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
