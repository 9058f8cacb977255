"""Differential integration test: every 1-D method, one shared trace.

A single long random trace of inserts, updates, deletes and queries is
replayed against *all* registered MOR methods simultaneously; at every
query, all answers must be identical to each other and to the oracle.
This catches divergence bugs that independent per-method tests can
miss (e.g. off-by-one boundary handling that two methods share).
"""

import random

import pytest

from repro.core import LinearMotion1D, MORQuery1D, MobileObject1D, brute_force_1d
from repro.indexes import (
    DualKDTreeIndex,
    DualRTreeIndex,
    HoughYForestIndex,
    NaiveScanIndex,
    PaperForestIndex,
    SegmentRTreeIndex,
)
from repro.indexes.partition_index import PartitionTreeIndex
from repro.indexes.tpr import TPRTreeIndex

from .helpers import PAPER_MODEL


def all_methods():
    return {
        "naive": NaiveScanIndex(PAPER_MODEL, page_capacity=16),
        "segment": SegmentRTreeIndex(PAPER_MODEL, page_capacity=8),
        "kdtree": DualKDTreeIndex(PAPER_MODEL, leaf_capacity=8),
        "rstar": DualRTreeIndex(PAPER_MODEL, page_capacity=8),
        "forest": HoughYForestIndex(PAPER_MODEL, c=3, leaf_capacity=8),
        "forest-paper": PaperForestIndex(PAPER_MODEL, c=3, leaf_capacity=8),
        "partition": PartitionTreeIndex(
            PAPER_MODEL, leaf_capacity=8, internal_capacity=16
        ),
        "tpr": TPRTreeIndex(PAPER_MODEL, page_capacity=8),
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_shared_trace(seed):
    rng = random.Random(seed)
    indexes = all_methods()
    live = {}
    next_id = 0
    now = 0.0
    divergences = []
    for step in range(400):
        now += rng.uniform(0.0, 1.0)
        action = rng.random()
        if action < 0.45 or not live:
            # insert
            speed = rng.uniform(PAPER_MODEL.v_min, PAPER_MODEL.v_max)
            direction = 1 if rng.random() < 0.5 else -1
            obj = MobileObject1D(
                next_id,
                LinearMotion1D(rng.uniform(0, 1000), direction * speed, now),
            )
            for index in indexes.values():
                index.insert(obj)
            live[next_id] = obj
            next_id += 1
        elif action < 0.65:
            # update
            oid = rng.choice(list(live))
            speed = rng.uniform(PAPER_MODEL.v_min, PAPER_MODEL.v_max)
            direction = 1 if rng.random() < 0.5 else -1
            obj = MobileObject1D(
                oid,
                LinearMotion1D(rng.uniform(0, 1000), direction * speed, now),
            )
            for index in indexes.values():
                index.update(obj)
            live[oid] = obj
        elif action < 0.8:
            # delete
            oid = rng.choice(list(live))
            for index in indexes.values():
                index.delete(oid)
            del live[oid]
        else:
            # query
            y1 = rng.uniform(0, 990)
            y2 = min(1000.0, y1 + rng.uniform(0, 500))
            t1 = now + rng.uniform(0, 60)
            t2 = t1 + rng.uniform(0, 60)
            query = MORQuery1D(y1, y2, t1, t2)
            expected = brute_force_1d(live.values(), query)
            for name, index in indexes.items():
                got = index.query(query)
                if got != expected:
                    divergences.append((step, name, got ^ expected))
    assert not divergences, divergences[:5]
    for index in indexes.values():
        assert len(index) == len(live)
