"""Units for the chaos layer: the crash-point injector and routing.

The fault machinery must itself be deterministic — a chaos run that
cannot be replayed cannot be debugged — so these tests pin that
:class:`CrashPointInjector` arms only the points some layer fires, and
that a write to an unknown object is rejected per operation.
"""

import pytest

from repro.errors import ObjectNotFoundError
from repro.service import (
    CrashPointInjector,
    CrashPointSpec,
    DeregisterOp,
    ShardedMotionService,
    WRITE_BATCH_CRASH_POINTS,
)
from repro.storage import ALL_CRASH_POINTS


class TestCrashPointInjector:
    @pytest.mark.parametrize(
        "point", ["write_batch.pre_fsync", "log.prefsync", "bulk", ""]
    )
    def test_a_point_no_layer_fires_is_refused(self, point):
        """A misspelt or retired point would never fire, and the run
        would pass without its crash: arming one, or planning one, is
        a ``ValueError``."""
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPointInjector().arm(point)
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPointInjector({point: CrashPointSpec()})

    def test_every_fired_point_arms(self):
        for point in ALL_CRASH_POINTS + WRITE_BATCH_CRASH_POINTS:
            armed = CrashPointInjector({point: CrashPointSpec(at=2)})
            assert armed.snapshot()["armed"] == [point]
            assert CrashPointInjector().arm(point).snapshot()["armed"] == [
                point
            ]


class TestShardHint:
    """An oid no shard holds has nowhere to route: its write is
    rejected per op, never mis-routed onto some shard."""

    def test_unknown_deregister_groups_but_still_errors(self):
        service = ShardedMotionService(1000.0, 0.16, 1.66, shards=3)
        service.register(1, 100.0, 1.0, 0.0)
        (error,) = service.apply_batch([DeregisterOp(424242)])
        assert isinstance(error, ObjectNotFoundError)
