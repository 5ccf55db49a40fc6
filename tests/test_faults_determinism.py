"""Satellite: fault injection is deterministic.

The same FaultPlan seed over the same workload must yield bit-identical
fault timestamps, retry counts and per-request terminal statuses — across
repeat runs, and across the scheduler's fast path on and off (which
produce the same task stream by PR 1's equivalence guarantee, so the
(task_id, attempt)-keyed draws land on the same executions).
"""

import pytest

from tests.chaos_helpers import (
    assert_invariants,
    build_server,
    outcome_fingerprint,
    run_chaos,
)
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig


def _storm_plan(seed):
    return FaultPlan(
        seed=seed,
        kernel_failure_rate=0.08,
        straggler_rate=0.1,
        straggler_multiplier=5.0,
        device_failures=[DeviceFailure(10e-3, 1)],
    )


def _storm_sla():
    return SLAConfig(default_deadline=40e-3, retry=RetryPolicy(max_retries=2))


def _run(seed, reference=False):
    server = build_server(
        fault_plan=_storm_plan(seed),
        sla=_storm_sla(),
        num_gpus=2,
        reference=reference,
    )
    submitted = run_chaos(server, num_requests=250, arrival_seed=7)
    assert_invariants(server, submitted)
    return server


@pytest.mark.parametrize("seed", [3, 17])
def test_same_seed_bit_identical_across_runs(seed):
    fp_a = outcome_fingerprint(_run(seed))
    fp_b = outcome_fingerprint(_run(seed))
    assert fp_a == fp_b


@pytest.mark.parametrize("seed", [3, 17])
def test_same_seed_bit_identical_across_fast_path(seed):
    fp_fast = outcome_fingerprint(_run(seed))
    fp_ref = outcome_fingerprint(_run(seed, reference=True))
    assert fp_fast == fp_ref


def test_different_seeds_diverge():
    fp_a = outcome_fingerprint(_run(3))
    fp_b = outcome_fingerprint(_run(4))
    assert fp_a != fp_b


def test_fault_timestamps_reproduce():
    """Beyond aggregate outcomes: the exact times at which requests went
    terminal (including every timeout and retry-exhaustion) reproduce."""
    times_a = [
        (r.request_id, r.terminal_time, r.cancel_reason)
        for r in sorted(_run(9).terminal_requests(), key=lambda r: r.request_id)
    ]
    times_b = [
        (r.request_id, r.terminal_time, r.cancel_reason)
        for r in sorted(_run(9).terminal_requests(), key=lambda r: r.request_id)
    ]
    assert times_a == times_b


def test_retry_counts_reproduce():
    retries_a = [r.retries for r in sorted(
        _run(21).terminal_requests(), key=lambda r: r.request_id)]
    retries_b = [r.retries for r in sorted(
        _run(21).terminal_requests(), key=lambda r: r.request_id)]
    assert retries_a == retries_b
    assert sum(retries_a) > 0, "the storm must actually retry something"
