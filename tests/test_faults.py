"""Units for the chaos layer: injector, breaker, retries, routing.

The fault machinery must itself be deterministic — a chaos run that
cannot be replayed cannot be debugged — so these tests pin the seeded
behaviour of :class:`FaultInjector`, the state machine of
:class:`CircuitBreaker` (driven by a fake clock), the backoff schedule
of :class:`RetryPolicy` (driven by a fake sleep), and that a write to
an unknown object is rejected per operation.
"""

import pytest

from repro.errors import InjectedFaultError, ObjectNotFoundError
from repro.service import (
    CircuitBreaker,
    DeregisterOp,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    ShardedMotionService,
)


class TestFaultSpec:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultSpec(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(error_rate=0.6, latency_rate=0.6)
        with pytest.raises(ValueError):
            FaultSpec(crash_on_op=0)


class TestFaultInjector:
    def drain(self, injector, shard, ops):
        """Run ``ops`` operations, returning the fault kind per op."""
        outcomes = []
        for _ in range(ops):
            try:
                injector.on_op(shard, "op")
                outcomes.append("ok")
            except InjectedFaultError as exc:
                outcomes.append(exc.kind)
        return outcomes

    def test_same_seed_same_fault_sequence(self):
        spec = FaultSpec(error_rate=0.3)
        a = self.drain(FaultInjector(seed=9, default=spec), 0, 200)
        b = self.drain(FaultInjector(seed=9, default=spec), 0, 200)
        assert a == b
        assert "error" in a  # 200 draws at 0.3 must fire

    def test_shards_draw_independent_streams(self):
        spec = FaultSpec(error_rate=0.3)
        injector = FaultInjector(seed=9, default=spec)
        a = self.drain(injector, 0, 200)
        b = self.drain(injector, 1, 200)
        assert a != b

    def test_crash_on_nth_op_fires_once(self):
        injector = FaultInjector(
            seed=1, per_shard={2: FaultSpec(crash_on_op=5)}
        )
        outcomes = self.drain(injector, 2, 5)
        assert outcomes == ["ok"] * 4 + ["crash"]
        assert injector.crashed(2)
        injector.clear_crash(2)
        # One-shot: the same spec does not re-fire after recovery.
        assert self.drain(injector, 2, 20) == ["ok"] * 20
        assert not injector.crashed(2)
        assert injector.snapshot()["injected"]["crashes"] == 1

    def test_latency_spikes_use_injected_sleep(self):
        slept = []
        injector = FaultInjector(
            seed=3,
            default=FaultSpec(latency_rate=0.5, latency_s=0.25),
            sleep=slept.append,
        )
        self.drain(injector, 0, 100)
        assert slept and set(slept) == {0.25}
        assert injector.snapshot()["injected"]["latencies"] == len(slept)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after_s=1.0, clock=lambda: clock[0]
        )
        assert breaker.state == "closed" and breaker.allow()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock[0] = 1.5
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == "half-open"
        breaker.record_failure()  # probe failed: straight back to open
        assert not breaker.allow()
        clock[0] = 3.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=lambda: 0.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"


class TestRetryPolicy:
    def test_retries_transient_with_exponential_backoff(self):
        delays = []
        policy = RetryPolicy(
            attempts=4, backoff_s=0.01, multiplier=2.0, sleep=delays.append
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise InjectedFaultError("flaky")
            return "done"

        assert policy.run(flaky) == "done"
        assert delays == [0.01, 0.02]

    def test_exhausted_retries_reraise_last(self):
        policy = RetryPolicy(attempts=2, sleep=lambda s: None)

        def always():
            raise InjectedFaultError("still flaky")

        with pytest.raises(InjectedFaultError):
            policy.run(always)

    def test_crash_kind_is_never_retried(self):
        attempts = []
        policy = RetryPolicy(attempts=5, sleep=lambda s: None)

        def dead():
            attempts.append(1)
            raise InjectedFaultError("boom", kind="crash")

        with pytest.raises(InjectedFaultError):
            policy.run(dead)
        assert len(attempts) == 1


class TestShardHint:
    """An oid no shard holds has nowhere to route: its write is
    rejected per op, never mis-routed onto some shard."""

    def test_unknown_deregister_groups_but_still_errors(self):
        service = ShardedMotionService(1000.0, 0.16, 1.66, shards=3)
        service.register(1, 100.0, 1.0, 0.0)
        (error,) = service.apply_batch([DeregisterOp(424242)])
        assert isinstance(error, ObjectNotFoundError)
