"""Request deadlines: timers, cancellation, and the scheduler unwind.

Focused (non-randomized) scenarios for the deadline machinery: explicit
per-request deadlines, SLA default deadlines, cancellation mid-queue
without corrupting the fast path's incremental ready counters, and the
deadline-vs-completion race at an exact timestamp.
"""

import pytest

from tests.chaos_helpers import assert_invariants, build_server, run_chaos
from tests.retention_helpers import keep_engine_state
from repro.core.request import RequestState
from repro.faults import SLAConfig
from repro.models.tree_lstm import TreePayload
from repro.registry import build_server as build_registry_server
from repro.registry import presets


def test_generous_deadline_never_fires():
    server = build_server(sla=SLAConfig())
    submitted = run_chaos(server, num_requests=50, deadline=10.0)
    assert_invariants(server, submitted)
    assert len(server.finished) == len(submitted)
    assert not server.timed_out


def test_impossible_deadline_times_out_everything():
    server = build_server(sla=SLAConfig())
    submitted = run_chaos(server, num_requests=50, deadline=1e-6)
    assert_invariants(server, submitted)
    assert not server.finished
    assert len(server.timed_out) == len(submitted)
    for request in server.timed_out:
        assert request.state is RequestState.TIMED_OUT
        assert request.cancel_reason == "deadline"
        assert request.terminal_time == pytest.approx(request.deadline)


@pytest.mark.parametrize("deadline", [0.0, -1e-3, float("nan"), float("inf")])
def test_a_deadline_that_is_not_positive_and_finite_is_refused(deadline):
    """A NaN deadline used to be accepted and time the request out at
    once; an infinite one parked a timer at ``inf`` on the loop."""
    server = build_server(sla=SLAConfig())
    with pytest.raises(ValueError, match="positive and finite"):
        server.submit(8, deadline=deadline)
    assert server.loop.pending() == 0


def test_default_deadline_applies_when_not_explicit():
    server = build_server(sla=SLAConfig(default_deadline=1e-6))
    submitted = run_chaos(server, num_requests=20)
    assert_invariants(server, submitted)
    assert len(server.timed_out) == len(submitted)
    for request in submitted:
        assert request.deadline == pytest.approx(request.arrival_time + 1e-6)


def test_explicit_deadline_beats_default():
    server = build_server(sla=SLAConfig(default_deadline=1e-6))
    request = server.submit([1] * 5, arrival_time=0.0, deadline=10.0)
    server.drain()
    assert request.state is RequestState.FINISHED
    assert request.deadline == pytest.approx(10.0)


def test_explicit_deadline_honoured_without_sla_config():
    """Explicit per-request deadlines are armed even when the server has no
    SLAConfig — an SLAConfig only adds defaults and shedding on top."""
    server = build_server()  # no SLAConfig at all
    request = server.submit([1] * 8, arrival_time=0.0, deadline=1e-6)
    server.drain()
    assert request.state is RequestState.TIMED_OUT


def test_mixed_deadlines_cancel_only_the_tight_ones():
    server = build_server(sla=SLAConfig())
    tight, loose = [], []
    for i in range(30):
        if i % 2:
            tight.append(server.submit([1] * 6, arrival_time=i * 1e-4, deadline=1e-6))
        else:
            loose.append(server.submit([1] * 6, arrival_time=i * 1e-4, deadline=10.0))
    server.drain()
    assert_invariants(server, tight + loose)
    assert all(r.state is RequestState.TIMED_OUT for r in tight)
    assert all(r.state is RequestState.FINISHED for r in loose)


def test_cancellation_unwinds_queued_subgraphs():
    """After a timed-out request is evicted its subgraphs own no queue, and
    the fast counters agree with a brute-force recount (no corruption)."""
    server = build_server(sla=SLAConfig())
    keep = keep_engine_state(server)
    victim = server.submit([1] * 20, arrival_time=0.0, deadline=1e-6)
    rest = [
        server.submit([1] * 6, arrival_time=1e-5 * (i + 1)) for i in range(10)
    ]
    server.drain()
    assert victim.state is RequestState.TIMED_OUT
    (sg,) = keep.subgraphs(victim)
    assert sg.owner is None, "evicted subgraph still owned by a queue"
    assert all(r.state is RequestState.FINISHED for r in rest)
    assert_invariants(server, [victim] + rest)


def test_counters_consistent_after_cancel_fast_vs_reference():
    """Identical timeout outcomes under the scheduler and under the
    brute-force scans — cancellation plays by the equivalence rules of
    PR 1."""
    outcomes = {}
    for reference in (False, True):
        server = build_server(sla=SLAConfig(), reference=reference)
        submitted = run_chaos(
            server, rate=8000.0, num_requests=120, deadline=2e-3
        )
        assert_invariants(server, submitted)
        outcomes[reference] = [
            (r.request_id, r.state.value, r.terminal_time) for r in submitted
        ]
    assert outcomes[True] == outcomes[False]
    assert any(s == "timed_out" for _, s, _ in outcomes[True]), (
        "the scenario must actually produce timeouts to be interesting"
    )


def test_deadline_equal_to_finish_time_prefers_timeout():
    """When the deadline timer and the finishing completion land on the
    same timestamp, the timer fires first (earlier event seq): the request
    is timed out, deterministically, and the late completion is ignored."""
    server = build_server()
    request = server.submit([1] * 5, arrival_time=0.0, deadline=10.0)
    server.drain()
    finish = request.finish_time
    assert finish is not None

    server2 = build_server()
    request2 = server2.submit([1] * 5, arrival_time=0.0, deadline=finish)
    server2.drain()
    assert request2.state is RequestState.TIMED_OUT
    assert request2.terminal_time == pytest.approx(finish)


def test_timeout_event_disarmed_on_finish():
    """A finished request's pending deadline timer is cancelled so the
    loop drains (no leaked events keeping virtual time alive)."""
    server = build_server()
    request = server.submit([1] * 5, arrival_time=0.0, deadline=100.0)
    server.drain()
    assert request.state is RequestState.FINISHED
    assert request._timeout_event is None
    assert server.loop.pending() == 0
    assert server.loop.now() < 100.0, "drain must not wait for the dead timer"


@pytest.mark.parametrize(
    "payload",
    [[1, 2, 3], TreePayload([-1, -1, 0], [-1, -1, 0], [1, 2, None])],
    ids=["not_a_tree", "malformed_arrays"],
)
def test_a_refused_tree_payload_is_rejected_and_leaves_no_timer(payload):
    """A payload the tree model refuses is a ``bad_payload`` reject, not an
    escaped exception: the deadline timer armed at admission goes with it,
    so nothing is left pending and nothing times out later."""
    server = build_registry_server(presets.tree_batchmaker_spec(), sla=SLAConfig())
    request = server.submit(payload, deadline=0.5)
    server.drain()
    assert request.state is RequestState.REJECTED
    assert request.cancel_reason.startswith("bad_payload: ")
    assert server.loop.pending() == 0
    assert not server.timed_out
    served = server.submit(TreePayload.complete(4), deadline=0.5)
    server.drain()
    assert served.state is RequestState.FINISHED
