"""Disk-based B+-tree (Comer '79), the substrate of the paper's §3.5.2 method."""

from repro.bptree.packed import PackedRecords
from repro.bptree.tree import BPlusTree

__all__ = ["BPlusTree", "PackedRecords"]
