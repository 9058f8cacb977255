"""1-D mobile-object indexes: every method of the paper's §5 study."""

from repro.indexes.base import INDEX_REGISTRY, MobileIndex1D, register_index
from repro.indexes.dual_point import DualKDTreeIndex, DualRTreeIndex
from repro.indexes.hough_y_forest import HoughYForestIndex, PaperForestIndex
from repro.indexes.hybrid import HybridIndex, SlowObjectIndex
from repro.indexes.mor1_index import MOR1AdapterIndex
from repro.indexes.naive import NaiveScanIndex
from repro.indexes.partition_index import PartitionTreeIndex
from repro.indexes.rotating import RotatingIndex
from repro.indexes.segment_rtree import SegmentRTreeIndex
from repro.indexes.tpr import TPRTreeIndex

__all__ = [
    "INDEX_REGISTRY",
    "DualKDTreeIndex",
    "DualRTreeIndex",
    "HoughYForestIndex",
    "HybridIndex",
    "MOR1AdapterIndex",
    "MobileIndex1D",
    "NaiveScanIndex",
    "PaperForestIndex",
    "PartitionTreeIndex",
    "RotatingIndex",
    "SlowObjectIndex",
    "SegmentRTreeIndex",
    "TPRTreeIndex",
    "register_index",
]
