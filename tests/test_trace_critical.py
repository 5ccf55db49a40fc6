"""Critical-path attribution: synthetic span trees plus the telescoping
property (bucket sum == end-to-end latency) on real chaos runs.

The synthetic cases pin the classification rules one at a time — queue is
uncovered time, a task span splits into gather prefix + compute body, a
padded batch span ends in a padding tail, failed attempts and backoff are
retry, overlaps resolve by priority, and work under a non-final cluster
shadow is routing.  The chaos-run properties then assert the telescoping
invariant for *every* request the analyzer sees, across the CI seed
matrix, for the engine and a 2-replica cluster losing a replica.
"""

import pytest
from tests.chaos_helpers import build_server, chaos_seeds, run_chaos
from tests.cluster_helpers import build_lstm_cluster, run_cluster
from tests.test_trace_determinism import storm_plan, storm_sla

from repro.trace import CriticalPath, TraceRecorder
from repro.trace import events as ev

TOLERANCE = 1e-9


class FixedClock:
    def now(self):
        return 0.0


def analyze(build):
    recorder = TraceRecorder(FixedClock())
    build(recorder.scope())
    return CriticalPath.from_recorder(recorder)


def only(path, request_id):
    matches = [r for r in path.requests if r.request_id == request_id]
    assert len(matches) == 1, f"request {request_id} analyzed {len(matches)}x"
    return matches[0]


# -- synthetic span trees ----------------------------------------------------


def test_task_span_splits_into_queue_gather_compute():
    def build(scope):
        scope.instant(ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=1, ts=0.0)
        scope.span(
            ev.TASK, ev.COMPUTE, ts=2.0, dur=3.0, device_id=0,
            args={"requests": [1], "gather": 1.0, "migration": 0.0},
        )
        scope.instant(ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=1, ts=5.0)

    r = only(analyze(build), 1)
    assert r.outcome == "finished"
    assert r.latency == pytest.approx(5.0)
    assert r.buckets[ev.QUEUE] == pytest.approx(2.0)
    assert r.buckets[ev.GATHER] == pytest.approx(1.0)
    assert r.buckets[ev.COMPUTE] == pytest.approx(2.0)
    assert abs(r.bucket_sum() - r.latency) <= TOLERANCE


def test_batch_padding_tail_charged_per_request():
    def build(scope):
        for rid in (1, 2):
            scope.instant(
                ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=rid, ts=0.0
            )
        scope.span(
            ev.BATCH, ev.COMPUTE, ts=1.0, dur=4.0, device_id=0,
            args={"requests": [1, 2], "padding": [0.0, 1.5]},
        )
        for rid in (1, 2):
            scope.instant(
                ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=rid, ts=5.0
            )

    path = analyze(build)
    full = only(path, 1)
    padded = only(path, 2)
    assert full.buckets[ev.COMPUTE] == pytest.approx(4.0)
    assert full.buckets[ev.PADDING] == pytest.approx(0.0)
    assert padded.buckets[ev.COMPUTE] == pytest.approx(2.5)
    assert padded.buckets[ev.PADDING] == pytest.approx(1.5)
    for r in (full, padded):
        assert r.buckets[ev.QUEUE] == pytest.approx(1.0)
        assert abs(r.bucket_sum() - r.latency) <= TOLERANCE


def test_failed_attempt_and_backoff_are_retry():
    def build(scope):
        scope.instant(ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=1, ts=0.0)
        # First attempt fails (cat=retry), backoff window, then the rerun.
        scope.span(
            ev.TASK, ev.RETRY, ts=1.0, dur=2.0, device_id=0,
            args={"requests": [1], "attempt": 0},
        )
        scope.span(
            ev.RETRY_BACKOFF, ev.RETRY, ts=3.0, dur=1.0,
            args={"requests": [1], "attempt": 0},
        )
        scope.span(
            ev.TASK, ev.COMPUTE, ts=4.0, dur=2.0, device_id=0,
            args={"requests": [1], "gather": 0.0, "migration": 0.0},
        )
        scope.instant(ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=1, ts=6.0)

    r = only(analyze(build), 1)
    assert r.buckets[ev.QUEUE] == pytest.approx(1.0)
    assert r.buckets[ev.RETRY] == pytest.approx(3.0)
    assert r.buckets[ev.COMPUTE] == pytest.approx(2.0)
    assert abs(r.bucket_sum() - r.latency) <= TOLERANCE


def test_overlap_resolves_by_priority_compute_wins():
    def build(scope):
        scope.instant(ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=1, ts=0.0)
        scope.span(
            ev.TASK, ev.COMPUTE, ts=1.0, dur=2.0,
            args={"requests": [1], "gather": 0.0, "migration": 0.0},
        )
        scope.span(ev.RETRY_BACKOFF, ev.RETRY, ts=2.0, dur=2.0,
                   args={"requests": [1]})
        scope.instant(ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=1, ts=4.0)

    r = only(analyze(build), 1)
    # [1,3) compute beats the overlapping retry on [2,3); retry keeps [3,4).
    assert r.buckets[ev.COMPUTE] == pytest.approx(2.0)
    assert r.buckets[ev.RETRY] == pytest.approx(1.0)
    assert r.buckets[ev.QUEUE] == pytest.approx(1.0)


def test_rejected_request_counted_not_analyzed():
    def build(scope):
        scope.instant(ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=1, ts=0.0)
        scope.instant(
            ev.REQUEST_REJECTED, ev.LIFECYCLE, request_id=1, ts=0.0,
            args={"reason": "shed"},
        )

    path = analyze(build)
    assert path.rejected == 1
    assert path.requests == []
    with pytest.raises(ValueError):
        path.mean_breakdown()


def test_cluster_shadow_work_on_abandoned_replica_is_routing():
    def build(scope):
        # Logical request 2 routed to replica 0 (shadow 5), re-routed to
        # replica 1 (shadow 9) after replica 0 dies mid-flight.
        scope.instant(ev.REQUEST_ARRIVAL, ev.LIFECYCLE, request_id=2, ts=0.0)
        scope.instant(
            ev.CLUSTER_ROUTE, ev.CLUSTER, request_id=2, ts=0.0,
            args={"logical": 2, "replica": 0, "shadow": 5},
        )
        r0 = scope.recorder.scope(replica_id=0)
        r0.span(
            ev.TASK, ev.COMPUTE, ts=1.0, dur=2.0, device_id=0,
            args={"requests": [5], "gather": 0.0, "migration": 0.0},
        )
        scope.instant(
            ev.CLUSTER_REROUTE, ev.CLUSTER, request_id=2, ts=3.0,
            args={"logical": 2, "replica": 1, "shadow": 9, "from": 0},
        )
        r1 = scope.recorder.scope(replica_id=1)
        r1.span(
            ev.TASK, ev.COMPUTE, ts=4.0, dur=2.0, device_id=0,
            args={"requests": [9], "gather": 0.0, "migration": 0.0},
        )
        r1.instant(ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=9, ts=6.0)
        scope.instant(ev.REQUEST_FINISHED, ev.LIFECYCLE, request_id=2, ts=6.0)

    r = only(analyze(build), 2)
    assert r.hops == 2
    # Replica 0's span is wasted work: the request finished elsewhere.
    assert r.buckets[ev.ROUTING] == pytest.approx(2.0)
    assert r.buckets[ev.COMPUTE] == pytest.approx(2.0)
    assert abs(r.bucket_sum() - r.latency) <= TOLERANCE


def test_bucket_percentile_rejects_unknown_bucket():
    path = CriticalPath([])
    with pytest.raises(ValueError):
        path.bucket_values("wall_time")


# -- telescoping property on real runs ---------------------------------------


def assert_buckets_telescope(path, finished, timed_out, rejected):
    analyzed = {r.request_id for r in path.requests}
    assert analyzed == {r.request_id for r in finished + timed_out}
    assert path.rejected == len(rejected)
    by_id = {r.request_id: r for r in finished + timed_out}
    for breakdown in path.requests:
        request = by_id[breakdown.request_id]
        assert breakdown.terminal == request.terminal_time
        assert abs(breakdown.bucket_sum() - breakdown.latency) <= TOLERANCE, (
            f"request {breakdown.request_id}: buckets sum to "
            f"{breakdown.bucket_sum()!r} but latency is {breakdown.latency!r}"
        )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", chaos_seeds())
def test_engine_bucket_sums_equal_latency_under_chaos(seed):
    server = build_server(storm_plan(seed), storm_sla(), num_gpus=2)
    recorder = TraceRecorder(server.loop)
    server.attach_trace(recorder)
    run_chaos(server)
    path = CriticalPath.from_recorder(recorder)
    assert path.requests, "critical path analyzed no requests"
    assert_buckets_telescope(
        path, server.finished, server.timed_out, server.rejected
    )
    # Chaos makes work for the retry bucket; the table must reflect it.
    assert any(r.buckets[ev.RETRY] > 0 for r in path.requests)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", chaos_seeds())
def test_cluster_bucket_sums_equal_latency_with_replica_loss(seed):
    cluster = build_lstm_cluster(
        num_replicas=2, seed=seed, replica_failures=[(8e-3, 1)]
    )
    recorder = TraceRecorder(cluster.loop)
    cluster.attach_trace(recorder)
    run_cluster(cluster, deadline=50e-3)
    path = CriticalPath.from_recorder(recorder)
    assert path.requests, "critical path analyzed no requests"
    assert_buckets_telescope(
        path, cluster.finished, cluster.timed_out, cluster.rejected
    )
    rerouted = [r for r in path.requests if r.hops >= 2]
    if rerouted:
        # Work stranded on the dead replica shows up as routing time.
        assert any(r.buckets[ev.ROUTING] > 0 for r in rerouted)


def test_no_fault_engine_run_has_empty_retry_and_routing():
    server = build_server(num_gpus=1)
    recorder = TraceRecorder(server.loop)
    server.attach_trace(recorder)
    run_chaos(server, num_requests=150)
    path = CriticalPath.from_recorder(recorder)
    for r in path.requests:
        assert r.buckets[ev.RETRY] == 0.0
        assert r.buckets[ev.ROUTING] == 0.0
        assert abs(r.bucket_sum() - r.latency) <= TOLERANCE
