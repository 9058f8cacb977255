"""Hypothesis policy for the suite.

``tier1`` (loaded by default) derives every example from the test's
own source and neither replays from nor saves to ``.hypothesis/``, so
the tier-1 verdict depends on the code alone: two runs of one commit
agree.  ``explore`` draws fresh random examples on every run; it is
for hunting new counterexamples (``make property-explore``), which
then get pinned on their test with ``@example``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
# ``pytest --hypothesis-profile=explore`` overrides this afterwards.
settings.load_profile("tier1")
