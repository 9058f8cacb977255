"""Extensions realising the paper's §7 future-work items.

* :mod:`repro.extensions.neighbors` — k-nearest-neighbor queries;
* :mod:`repro.extensions.joins` — distance joins between relations;
* :mod:`repro.extensions.history` — historical (past-window) queries
  via a partially persistent motion archive.
"""

from repro.extensions.history import HistoryArchive
from repro.extensions.joins import (
    brute_force_distance_join,
    index_distance_join,
    min_gap,
    pair_within,
    self_join_pairs,
)
from repro.extensions.neighbors import KNNEngine, brute_force_knn, knn_at
from repro.extensions.zones import SpeedZones, ZonedForestIndex

__all__ = [
    "HistoryArchive",
    "KNNEngine",
    "SpeedZones",
    "ZonedForestIndex",
    "brute_force_distance_join",
    "brute_force_knn",
    "index_distance_join",
    "knn_at",
    "min_gap",
    "pair_within",
    "self_join_pairs",
]
