"""repro — a reproduction of "On Indexing Mobile Objects" (PODS 1999).

Index mobile objects (points moving linearly in 1-D or 2-D) for
*future* range queries — "report the objects inside this region at some
time in this future window" — under the external-memory I/O model.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import (
        HoughYForestIndex, LinearMotion1D, MobileObject1D, MORQuery1D,
        MotionModel, Terrain1D,
    )

    model = MotionModel(Terrain1D(1000.0), v_min=0.16, v_max=1.66)
    index = HoughYForestIndex(model, c=4)
    index.insert(MobileObject1D(1, LinearMotion1D(y0=10.0, v=1.0, t0=0.0)))
    index.query(MORQuery1D(y1=40.0, y2=60.0, t1=30.0, t2=50.0))  # -> {1}

Sub-packages:

* :mod:`repro.core` — motions, MOR queries, dual transforms (§2-3.2);
* :mod:`repro.io_sim` — the paged external-memory simulator;
* :mod:`repro.indexes` — every 1-D method of the §5 study;
* :mod:`repro.bptree` / :mod:`repro.rtree` / :mod:`repro.kdtree` /
  :mod:`repro.interval` — the disk-based substrates;
* :mod:`repro.partition` — the almost-optimal partition tree (§3.4);
* :mod:`repro.kinetic` — the logarithmic restricted index (§3.6);
* :mod:`repro.twod` — route networks (§4.1) and planar motion (§4.2);
* :mod:`repro.workloads` / :mod:`repro.bench` — the §5 experiments.
"""

from repro.core import (
    LinearMotion1D,
    LinearMotion2D,
    MOR1Query,
    MORQuery1D,
    MORQuery2D,
    MobileObject1D,
    MobileObject2D,
    MotionModel,
    Terrain1D,
    Terrain2D,
    brute_force_1d,
    brute_force_2d,
    brute_force_mor1,
)
from repro.indexes import (
    INDEX_REGISTRY,
    DualKDTreeIndex,
    DualRTreeIndex,
    HoughYForestIndex,
    MobileIndex1D,
    NaiveScanIndex,
    RotatingIndex,
    SegmentRTreeIndex,
)
from repro.engine import MotionDatabase
from repro.kinetic import MOR1Index, StaggeredMOR1Index
from repro.service import (
    MetricsRegistry,
    ShardedMotionService,
    SubscriptionManager,
)
from repro.twod import (
    PlanarDecompositionIndex,
    PlanarKDTreeIndex,
    PlanarModel,
    Route,
    RouteNetworkIndex,
)

__version__ = "0.1.0"

__all__ = [
    "INDEX_REGISTRY",
    "DualKDTreeIndex",
    "DualRTreeIndex",
    "HoughYForestIndex",
    "LinearMotion1D",
    "LinearMotion2D",
    "MOR1Index",
    "MOR1Query",
    "MORQuery1D",
    "MORQuery2D",
    "MobileIndex1D",
    "MobileObject1D",
    "MetricsRegistry",
    "MobileObject2D",
    "MotionDatabase",
    "MotionModel",
    "NaiveScanIndex",
    "PlanarDecompositionIndex",
    "PlanarKDTreeIndex",
    "PlanarModel",
    "RotatingIndex",
    "Route",
    "RouteNetworkIndex",
    "SegmentRTreeIndex",
    "ShardedMotionService",
    "StaggeredMOR1Index",
    "SubscriptionManager",
    "Terrain1D",
    "Terrain2D",
    "brute_force_1d",
    "brute_force_2d",
    "brute_force_mor1",
]
