"""Satellite: InferenceServer.drain semantics under in-flight cancellations.

``drain()`` must terminate (virtual time must not be held open by dead
timers or orphaned completions), honour its ``until`` horizon, and remain
re-entrant: cancelling requests mid-drain, draining again after more
submissions, and draining an already-drained server all behave.
"""

import pytest

from tests.chaos_helpers import assert_invariants, build_server
from repro.core.request import RequestState
from repro.faults import FaultPlan, KERNEL_FAIL, RetryPolicy, SLAConfig, TaskFault


def test_drain_empty_server_is_a_noop():
    server = build_server()
    server.drain()
    assert server.loop.now() == 0.0
    assert server.loop.pending() == 0


def test_drain_terminates_when_every_request_times_out():
    """All-timeout workloads must not leave the loop spinning: eviction
    plus timer disarm leaves nothing schedulable."""
    server = build_server(sla=SLAConfig(default_deadline=1e-6))
    submitted = [
        server.submit([1] * 10, arrival_time=i * 1e-5) for i in range(30)
    ]
    server.drain()
    assert all(r.state is RequestState.TIMED_OUT for r in submitted)
    assert server.loop.pending() == 0
    assert_invariants(server, submitted)


def test_drain_until_horizon_stops_mid_flight():
    server = build_server()
    request = server.submit([1] * 200, arrival_time=0.0, deadline=1.0)
    server.drain(until=1e-5)
    assert server.loop.now() == 1e-5
    assert not request.terminal, "horizon must not force an outcome"
    assert server.loop.pending() > 0
    # Resuming the drain completes the request and disarms its timer.
    server.drain()
    assert request.state is RequestState.FINISHED
    assert server.loop.pending() == 0


def test_cancellation_scheduled_mid_drain_takes_effect():
    """Cancel a request from a timer that fires while the drain runs: the
    drain keeps going, the victim unwinds, everyone else completes."""
    server = build_server()
    victim = server.submit([1] * 200, arrival_time=0.0)
    rest = [server.submit([1] * 10, arrival_time=1e-5) for _ in range(5)]
    server.loop.call_at(
        2e-5, lambda: server.manager.cancel_request(victim, reason="manual")
    )
    server.drain()
    assert victim.state is RequestState.TIMED_OUT
    assert victim.cancel_reason == "manual"
    assert all(r.state is RequestState.FINISHED for r in rest)
    assert_invariants(server, [victim] + rest)


def test_submit_after_drain_then_drain_again():
    server = build_server(sla=SLAConfig())
    first = server.submit([1] * 10, arrival_time=0.0, deadline=1e-6)
    server.drain()
    assert first.state is RequestState.TIMED_OUT
    second = server.submit([1] * 10, deadline=10.0)
    server.drain()
    assert second.state is RequestState.FINISHED
    assert_invariants(server, [first, second])


def test_drain_with_retry_in_backoff_completes_the_retry():
    """A drain that starts while a failed task sits in its backoff window
    must run the retry to completion, not stop at the idle gap."""
    retry = RetryPolicy(max_retries=2, backoff_base=20e-3)
    plan = FaultPlan(task_overrides={(0, 0): TaskFault(KERNEL_FAIL)})
    server = build_server(fault_plan=plan, sla=SLAConfig(retry=retry))
    request = server.submit([1] * 6, arrival_time=0.0)
    server.drain()
    assert request.state is RequestState.FINISHED
    assert request.retries == 1
    assert server.loop.now() > 20e-3, "the backoff window was simulated"


def test_drain_until_before_deadline_leaves_timer_armed():
    server = build_server()
    request = server.submit([1] * 5, arrival_time=0.0, deadline=50e-3)
    server.drain(until=1e-6)
    # The request is still pending and its deadline timer still armed.
    assert not request.terminal
    assert request._timeout_event is not None
    server.drain()
    assert request.state is RequestState.FINISHED
    assert request._timeout_event is None


def test_terminal_requests_union_is_stable_across_drains():
    server = build_server(sla=SLAConfig(default_deadline=5e-3))
    a = [server.submit([1] * 10, arrival_time=i * 1e-4) for i in range(10)]
    server.drain()
    snapshot = {r.request_id: r.state for r in server.terminal_requests()}
    b = [server.submit([1] * 10) for _ in range(10)]
    server.drain()
    for request_id, state in snapshot.items():
        match = [r for r in server.terminal_requests() if r.request_id == request_id]
        assert len(match) == 1 and match[0].state is state, (
            "a later drain re-reported or mutated an earlier outcome"
        )
    assert_invariants(server, a + b)
