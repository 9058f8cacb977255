"""Compare two sets of benchmark runs: one row per (workload, metric).

    python benchmarks/perf/compare.py BASE.json NEW.json

Both files come from ``run.py --repeat K --out FILE``.  For every
workload and each of the 14 end-to-end metrics the workload has, the
table shows the base median, the new median, their ratio (new / base,
base shown), the metric's bound and a verdict:

``worse``       the new median is worse than the base median by more
                than the bound
``unresolved``  the spread between repeated runs of either side exceeds
                the bound, so a change of the bound's size could hide
                in the noise — unless every run of one side beats every
                run of the other
``better``      the new side wins at least nine tenths of the same-seed
                pairs (ties count for neither) and the medians differ
                by more than the base's own spread
``same``        none of the above

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

Counts that one client makes exact for a seed — ``query_pages``,
``update_pages``, ``write_amp``, ``lost_synced_writes``,
``failed_share`` and the ``schedule_sha256`` — are compared seed by
seed instead and must be ``identical``.  The exit status is non-zero
when any row is ``worse``, ``unresolved`` or ``DIFFERENT``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from catalog import END_TO_END  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402


def load(path: str) -> List[Dict]:
    with open(path) as handle:
        data = json.load(handle)
    runs = data["runs"] if "runs" in data else [data]
    return [r for r in runs if r["trace"] == 0]


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(base: Dict[int, float], new: Dict[int, float], better: str,
            bound: float) -> str:
    """One word for one (workload, metric) pair; see the module text."""
    sign = -1.0 if better == "higher" else 1.0  # make lower always better
    b = [sign * v for v in base.values()]
    n = [sign * v for v in new.values()]
    b_mid, n_mid = statistics.median(b), statistics.median(n)
    worse_by = (n_mid - b_mid) / abs(b_mid) if b_mid else 0.0
    every_new_better = max(n) < min(b)
    noisy = max(spread(b), spread(n)) > bound
    if worse_by > bound:
        return "unresolved" if noisy and not min(n) > max(b) else "worse"
    if noisy and not every_new_better:
        return "unresolved"
    pairs = [(sign * base[s], sign * new[s]) for s in set(base) & set(new)]
    decided = [(x, y) for x, y in pairs if x != y]
    wins = sum(1 for x, y in decided if y < x)
    if (decided and wins >= 0.9 * len(decided)
            and -worse_by > spread(b) and len(pairs) > 1):
        return "better"
    return "same"


def by_seed(runs: List[Dict], workload: str, field) -> Dict[int, object]:
    out = {}
    for r in runs:
        if r["workload"] == workload and field(r) is not None:
            out[r["seed"]] = field(r)
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_runs, new_runs = load(argv[1]), load(argv[2])
    bad = 0
    print(f"{'workload':15}{'metric':20}{'base':>12}{'new':>12}"
          f"{'new/base':>10}{'bound':>7}{'spread b/n':>14}  verdict")
    for workload in WORKLOAD_NAMES:
        for m in END_TO_END:
            if workload not in m.on:
                continue
            base = by_seed(base_runs, workload,
                           lambda r: r["end_to_end"][m.name])
            new = by_seed(new_runs, workload,
                          lambda r: r["end_to_end"][m.name])
            if not base or not new:
                continue
            b_all, n_all = list(base.values()), list(new.values())
            b, n = statistics.median(b_all), statistics.median(n_all)
            if m.exact:
                seeds = sorted(set(base) & set(new))
                same = all(base[s] == new[s] for s in seeds)
                word = (f"{'identical' if same else 'DIFFERENT'} on "
                        f"{len(seeds)} seed(s)")
                bad += not same
                noise = f"{'':14}"
            else:
                word = verdict(base, new, m.better, m.bound)
                bad += word in ("worse", "unresolved")
                noise = f"{spread(b_all):7.1%}{spread(n_all):7.1%}"
            print(f"{workload:15}{m.name:20}{b:12.5g}{n:12.5g}"
                  f"{n / b if b else 1:10.3f}{m.bound:7.0%}{noise}  {word}"
                  f" (base {b:.5g} {m.unit})")
        base = by_seed(base_runs, workload, lambda r: r["schedule_sha256"])
        new = by_seed(new_runs, workload, lambda r: r["schedule_sha256"])
        seeds = sorted(set(base) & set(new))
        same = all(base[s] == new[s] for s in seeds)
        bad += not same
        print(f"{workload:15}{'schedule_sha256':20}{'':55}  "
              f"{'identical' if same else 'DIFFERENT'} on "
              f"{len(seeds)} seed(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
