"""Hypothesis policy for the suite.

``tier1`` (loaded by default) is derandomized and neither replays
from nor saves to ``.hypothesis/``, so the tier-1 verdict depends on
the code alone: two runs of one commit agree.  It does not depend on
the test's own source alone: hypothesis also seeds its draws with the
numeric and string literals of every loaded local module (``src/``
included), so an edit that adds or removes literals anywhere can
change which examples a property draws.  A counterexample that surfaces
that way is a real one: pin it with ``@example`` and fix the code;
never narrow the strategy or loosen the oracle.  ``explore`` draws
fresh random examples on every run; it is for hunting new
counterexamples (``make property-explore``), which then get pinned on
their test with ``@example``.
"""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
# ``pytest --hypothesis-profile=explore`` overrides this afterwards.
settings.load_profile("tier1")


@pytest.fixture
def short_checkpoint_floor(monkeypatch):
    """Checkpoint at a 16-record floor (``ShardWAL.MIN_TAIL``), so the
    short chaos runs that ask for it cross checkpoints on their small
    shards, not only log tails."""
    from repro.service import ShardWAL

    monkeypatch.setattr(ShardWAL, "MIN_TAIL", 16)


@pytest.fixture
def closing():
    """``closing(service)`` returns ``service`` and closes it when the
    test ends, passed or failed: a failing wall must not leak its log
    files into the next test through the ``ResourceWarning`` filter."""
    services = []

    def keep(service):
        services.append(service)
        return service

    yield keep
    for service in services:
        service.close()
