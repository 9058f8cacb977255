"""Golden determinism lock: exact I/O counts of a pinned tiny sweep.

Every structure in the library is deterministic given the workload
seed, so the exact page-access counts of a pinned configuration form a
regression fingerprint: any change to split policies, buffering or
accounting shows up here immediately.  If a change is *intentional*,
re-pin the constants (they are asserted as exact totals, with the
generating code right here).
"""

from repro.bench import run_sweep
from repro.indexes import DualKDTreeIndex, HoughYForestIndex
from repro.workloads import SMALL_QUERIES

PINNED = dict(
    sizes=[300],
    query_class=SMALL_QUERIES,
    ticks=12,
    query_instants=2,
    queries_per_instant=5,
    update_rate=0.01,
    seed=12345,
)


def pinned_methods():
    return {
        "kdtree": lambda m: DualKDTreeIndex(m, leaf_capacity=16),
        "forest": lambda m: HoughYForestIndex(m, c=2, leaf_capacity=16),
    }


def test_pinned_sweep_fingerprint():
    sweep = run_sweep(pinned_methods(), **PINNED)
    kdtree = sweep.get("kdtree", 300)
    forest = sweep.get("forest", 300)
    # Exact totals: queries, updates and space for both methods.
    fingerprint = {
        "kdtree": (
            sum(kdtree.query_ios),
            sum(kdtree.update_ios),
            kdtree.space_pages,
            sum(kdtree.query_answer_sizes),
        ),
        "forest": (
            sum(forest.query_ios),
            sum(forest.update_ios),
            forest.space_pages,
            sum(forest.query_answer_sizes),
        ),
    }
    # To re-pin after an intentional change:
    #   python -c "from tests.test_golden_regression import *; \
    #              import pprint; pprint.pprint(current_fingerprint())"
    assert fingerprint == EXPECTED, fingerprint


def current_fingerprint():
    sweep = run_sweep(pinned_methods(), **PINNED)
    out = {}
    for name in ("kdtree", "forest"):
        result = sweep.get(name, 300)
        out[name] = (
            sum(result.query_ios),
            sum(result.update_ios),
            result.space_pages,
            sum(result.query_answer_sizes),
        )
    return out


#: (total query I/O, total update I/O, pages, total answers) per method.
EXPECTED = {
    "kdtree": (146, 148, 30, 30),
    "forest": (94, 328, 62, 30),
}
