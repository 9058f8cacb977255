"""Forest query-cost prediction from the eq. (1) geometry.

The §3.5.2 analysis says the approximation fetches the records whose
``b``-coordinate falls in the query rectangle — the exact answer plus
the two triangles of area ``E``.  Given the empirical distribution of
stored ``b`` values (a histogram per observation tree), the fetched
count for any query — the served forest scans every width the same way
— is therefore *predictable* before running it: it is the histogram
mass inside :func:`~repro.core.duality.hough_y_b_range`, speed band by
speed band
(:meth:`~repro.indexes.hough_y_forest.HoughYForestIndex.scan_plan`).

:class:`ForestCostPredictor` builds those histograms from a forest and
predicts per-query fetch volumes; the test suite checks the prediction
tracks the measured :meth:`~repro.indexes.hough_y_forest.HoughYForestIndex.approximation_overhead`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.core.queries import MORQuery1D
from repro.indexes.hough_y_forest import HoughYForestIndex


class ForestCostPredictor:
    """Predicts fetched-record counts for forest queries of any width."""

    def __init__(
        self, keys: Dict[Tuple[int, int], List[Tuple]], forest: HoughYForestIndex
    ) -> None:
        self._sorted_keys = {
            tree: sorted(values) for tree, values in keys.items()
        }
        self._forest = forest

    @classmethod
    def from_index(cls, forest: HoughYForestIndex) -> "ForestCostPredictor":
        """Snapshot the stored keys of every observation tree.

        Building the snapshot scans the trees once (charged I/O); the
        predictions themselves are then free.
        """
        return cls(
            {
                tree_key: [key for key, _ in tree.items()]
                for tree_key, tree in forest._trees.items()
            },
            forest,
        )

    def predict_fetched(self, query: MORQuery1D) -> int:
        """Records a query will fetch (both velocity signs)."""
        total = 0
        for tree, _, _, lo, hi in self._forest.scan_plan(query):
            keys = self._sorted_keys.get(tree, [])
            total += bisect.bisect_right(keys, hi) - bisect.bisect_left(
                keys, lo
            )
        return total

    def predict_leaf_reads(self, query: MORQuery1D) -> float:
        """Approximate leaf pages touched: fetched records / leaf fill."""
        fetched = self.predict_fetched(query)
        capacity = next(iter(self._forest._trees.values())).leaf_capacity
        return fetched / max(1, capacity // 2)
