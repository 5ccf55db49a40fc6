"""Unit tests for repro.faults: FaultPlan draws, RetryPolicy, SLAConfig."""

import pytest

from repro.faults import (
    DeviceFailure,
    FaultPlan,
    KERNEL_FAIL,
    RetryPolicy,
    SLAConfig,
    STRAGGLER,
    TaskFault,
)


class TestFaultPlanDraws:
    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=3)
        assert not plan.injects_anything()
        for task_id in range(200):
            assert plan.task_fault(task_id, 0) is None

    def test_rate_one_always_faults(self):
        plan = FaultPlan(seed=3, kernel_failure_rate=1.0)
        for task_id in range(50):
            fault = plan.task_fault(task_id, 0)
            assert fault is not None and fault.kind == KERNEL_FAIL

    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=11, kernel_failure_rate=0.3, straggler_rate=0.3)
        b = FaultPlan(seed=11, kernel_failure_rate=0.3, straggler_rate=0.3)
        for task_id in range(300):
            for attempt in range(3):
                fa = a.task_fault(task_id, attempt)
                fb = b.task_fault(task_id, attempt)
                assert (fa is None) == (fb is None)
                if fa is not None:
                    assert (fa.kind, fa.slowdown) == (fb.kind, fb.slowdown)

    def test_draws_are_order_independent(self):
        """The draw is a pure function of (seed, task_id, attempt): querying
        in a different order, or repeatedly, cannot change the outcome."""
        plan = FaultPlan(seed=5, kernel_failure_rate=0.4, straggler_rate=0.2)
        forward = [plan.task_fault(t, 0) for t in range(100)]
        backward = [plan.task_fault(t, 0) for t in reversed(range(100))]
        backward.reverse()
        for fa, fb in zip(forward, backward):
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert fa.kind == fb.kind

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, kernel_failure_rate=0.5)
        b = FaultPlan(seed=2, kernel_failure_rate=0.5)
        outcomes_a = tuple(a.task_fault(t, 0) is not None for t in range(200))
        outcomes_b = tuple(b.task_fault(t, 0) is not None for t in range(200))
        assert outcomes_a != outcomes_b

    def test_different_attempts_draw_independently(self):
        plan = FaultPlan(seed=9, kernel_failure_rate=0.5)
        outcomes = [
            tuple(plan.task_fault(t, attempt) is not None for t in range(200))
            for attempt in range(3)
        ]
        assert outcomes[0] != outcomes[1] or outcomes[1] != outcomes[2]

    def test_rates_roughly_respected(self):
        plan = FaultPlan(seed=4, kernel_failure_rate=0.25)
        hits = sum(1 for t in range(4000) if plan.task_fault(t, 0) is not None)
        assert 0.20 < hits / 4000 < 0.30

    def test_straggler_carries_multiplier(self):
        plan = FaultPlan(seed=4, straggler_rate=1.0, straggler_multiplier=6.0)
        fault = plan.task_fault(0, 0)
        assert fault.kind == STRAGGLER
        assert fault.slowdown == 6.0

    def test_task_overrides_beat_rates(self):
        plan = FaultPlan(
            seed=4,
            kernel_failure_rate=1.0,
            task_overrides={(7, 0): TaskFault(STRAGGLER, slowdown=2.0)},
        )
        assert plan.task_fault(7, 0).kind == STRAGGLER
        assert plan.task_fault(8, 0).kind == KERNEL_FAIL

    def test_device_failures_sorted_and_injecting(self):
        plan = FaultPlan(
            device_failures=[DeviceFailure(0.5, 1), DeviceFailure(0.1, 0)]
        )
        assert plan.injects_anything()
        times = [f.time for f in plan.device_failures()]
        assert times == sorted(times)

    def test_negative_device_id_rejected_by_name(self):
        """Python's negative indexing would kill the *last* GPU."""
        with pytest.raises(ValueError, match="-1"):
            FaultPlan(device_failures=[(0.0, -1)])

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(kernel_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_rate=-0.1)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        retry = RetryPolicy(max_retries=5, backoff_base=1e-3)
        delays = [retry.backoff(a) for a in range(4)]
        assert delays == [1e-3, 2e-3, 4e-3, 8e-3]

    def test_defaults_sane(self):
        retry = RetryPolicy()
        assert retry.max_retries >= 1
        assert retry.backoff(0) > 0
        assert retry.backoff(1) > retry.backoff(0)

    def test_sla_config_holds_pieces(self):
        retry = RetryPolicy(max_retries=1)
        sla = SLAConfig(default_deadline=0.5, max_queue_delay=0.1, retry=retry)
        assert sla.default_deadline == 0.5
        assert sla.max_queue_delay == 0.1
        assert sla.retry is retry
