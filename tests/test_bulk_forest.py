"""Tests for bulk construction of the Hough-Y forest."""

import random

import pytest

from repro.core import LinearMotion1D, MobileObject1D, brute_force_1d
from repro.errors import DuplicateObjectError, InvalidMotionError
from repro.indexes import HoughYForestIndex

from .helpers import PAPER_MODEL, random_objects, random_queries


class TestBulkBuild:
    def test_bulk_equals_incremental(self):
        rng = random.Random(3)
        objects = random_objects(rng, 400)
        bulk = HoughYForestIndex.bulk_build(
            PAPER_MODEL, objects, c=3, leaf_capacity=16
        )
        incremental = HoughYForestIndex(PAPER_MODEL, c=3, leaf_capacity=16)
        for obj in objects:
            incremental.insert(obj)
        assert len(bulk) == len(incremental) == 400
        for query in random_queries(rng, 25):
            expected = brute_force_1d(objects, query)
            assert bulk.query(query) == expected
            assert incremental.query(query) == expected

    def test_bulk_then_mutate(self):
        rng = random.Random(5)
        objects = {o.oid: o for o in random_objects(rng, 200)}
        bulk = HoughYForestIndex.bulk_build(
            PAPER_MODEL, list(objects.values()), c=2, leaf_capacity=8
        )
        for oid in list(objects)[::3]:
            bulk.delete(oid)
            del objects[oid]
        for oid in range(1000, 1040):
            obj = MobileObject1D(oid, LinearMotion1D(500.0, 1.0, 120.0))
            bulk.insert(obj)
            objects[oid] = obj
        for query in random_queries(rng, 15, t_now=130.0):
            assert bulk.query(query) == brute_force_1d(
                objects.values(), query
            )

    def test_bulk_build_io_beats_incremental(self):
        rng = random.Random(7)
        objects = random_objects(rng, 600)
        bulk = HoughYForestIndex.bulk_build(
            PAPER_MODEL, objects, c=4, leaf_capacity=16
        )
        bulk_io = sum(d.stats.total for d in bulk.disks)
        incremental = HoughYForestIndex(PAPER_MODEL, c=4, leaf_capacity=16)
        for obj in objects:
            incremental.insert(obj)
        incremental_io = sum(d.stats.total for d in incremental.disks)
        assert bulk_io < incremental_io / 2

    def test_validation(self):
        rng = random.Random(9)
        objects = random_objects(rng, 5)
        with pytest.raises(DuplicateObjectError):
            HoughYForestIndex.bulk_build(
                PAPER_MODEL, objects + [objects[0]], c=2
            )
        with pytest.raises(ValueError):
            HoughYForestIndex.bulk_build(PAPER_MODEL, objects, c=0)
        bad = [MobileObject1D(99, LinearMotion1D(0.0, 50.0))]
        with pytest.raises(InvalidMotionError):
            HoughYForestIndex.bulk_build(PAPER_MODEL, bad)

    def test_empty_bulk(self):
        bulk = HoughYForestIndex.bulk_build(PAPER_MODEL, [], c=2)
        assert len(bulk) == 0
        from repro.core import MORQuery1D

        assert bulk.query(MORQuery1D(0, 1000, 0, 100)) == set()
