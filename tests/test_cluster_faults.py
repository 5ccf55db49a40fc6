"""Replica-loss chaos tests: the cluster analogue of the device-loss suite.

Every test drives a fixed-seed workload while killing replicas at
scheduled virtual times, then asserts the cluster invariants (exactly-once
terminal states, clean loop) plus the loss-specific behaviours: live work
re-routes to survivors, the dead replica stops serving, and only total
loss rejects requests.
"""

import pytest
from tests.chaos_helpers import chaos_seeds
from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)

from repro.cluster import DEAD
from repro.core.request import RequestState

pytestmark = pytest.mark.chaos


def test_replica_failures_are_injected_in_time_then_id_order():
    """Out-of-order pairs die in ``(time, id)`` order — two losses at one
    instant fire by replica id, whatever order the caller listed them in —
    and a negative time or id is refused."""
    cluster = build_lstm_cluster(
        num_replicas=3, seed=0, replica_failures=[(0.02, 1), (0.01, 2), (0.01, 0)]
    )
    cluster.drain()
    assert [e for e in cluster.scale_events if e[1] == "lost"] == [
        (0.01, "lost", 0),
        (0.01, "lost", 2),
        (0.02, "lost", 1),
    ]
    for bad in ((-0.01, 0), (0.01, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            build_lstm_cluster(num_replicas=2, seed=0, replica_failures=[bad])


@pytest.mark.parametrize("seed", chaos_seeds())
def test_replica_loss_reroutes_live_work(seed):
    cluster = build_lstm_cluster(
        num_replicas=3,
        router="least_outstanding",
        seed=seed,
        replica_failures=[(0.02, 1)],
    )
    submitted = run_cluster(
        cluster, rate=6000.0, num_requests=300, arrival_seed=seed
    )
    assert_cluster_invariants(cluster, submitted)
    dead = cluster.replicas[1]
    assert dead.state == DEAD
    assert cluster.cluster_counters.replicas_lost == 1
    assert cluster.cluster_counters.requests_rerouted > 0
    # Everything still completes: survivors absorbed the re-routed work.
    assert len(cluster.finished) == 300
    assert cluster.cluster_counters.requests_lost == 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_total_loss_rejects_instead_of_hanging(seed):
    cluster = build_lstm_cluster(
        num_replicas=2,
        router="round_robin",
        seed=seed,
        replica_failures=[(0.01, 0), (0.01, 1)],
    )
    submitted = run_cluster(
        cluster, rate=4000.0, num_requests=200, arrival_seed=seed
    )
    assert_cluster_invariants(cluster, submitted)
    assert all(replica.state == DEAD for replica in cluster.replicas)
    # Early arrivals may finish before the loss; everything after it must
    # be rejected with the cluster-level reason, and nothing hangs.
    assert len(cluster.rejected) > 0
    for request in cluster.rejected:
        assert request.cancel_reason == "no_replicas"
        assert request.state is RequestState.REJECTED
    assert (
        cluster.cluster_counters.cluster_rejections
        + cluster.cluster_counters.requests_lost
        == len(cluster.rejected)
    )


def test_dead_replica_receives_no_new_work():
    cluster = build_lstm_cluster(
        num_replicas=2,
        router="round_robin",
        seed=1,
        replica_failures=[(0.015, 0)],
    )
    run_cluster(cluster, rate=5000.0, num_requests=300)
    dead = cluster.replicas[0]
    # No shadow routed to the dead replica arrived after the loss time.
    for shadow in dead.server.terminal_requests():
        assert shadow.arrival_time <= 0.015


def test_loss_before_any_arrivals_routes_everything_to_survivor():
    cluster = build_lstm_cluster(
        num_replicas=2,
        router="least_outstanding",
        seed=2,
        replica_failures=[(0.0, 1)],
    )
    submitted = run_cluster(cluster, rate=3000.0, num_requests=100)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.replicas[0].routed == 100
    assert cluster.replicas[1].routed == 0
    assert len(cluster.finished) == 100


def test_unknown_replica_id_failure_is_ignored():
    cluster = build_lstm_cluster(
        num_replicas=2, seed=3, replica_failures=[(0.01, 99)]
    )
    submitted = run_cluster(cluster, rate=3000.0, num_requests=100)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.cluster_counters.replicas_lost == 0


def test_negative_replica_id_failure_is_rejected_by_name():
    """Python's negative indexing would kill the *last* replica."""
    with pytest.raises(ValueError, match="-1"):
        build_lstm_cluster(num_replicas=2, seed=3, replica_failures=[(0.01, -1)])


@pytest.mark.parametrize("seed", chaos_seeds())
def test_replica_loss_is_deterministic(seed):
    def fingerprint():
        cluster = build_lstm_cluster(
            num_replicas=3,
            router="shortest_queue",
            seed=seed,
            replica_failures=[(0.02, 0), (0.04, 2)],
        )
        run_cluster(cluster, rate=6000.0, num_requests=300, arrival_seed=seed)
        return (
            tuple(
                (r.request_id, r.state.value, r.terminal_time)
                for r in sorted(
                    cluster.terminal_requests(), key=lambda r: r.request_id
                )
            ),
            tuple(sorted(cluster.cluster_counters.as_dict().items())),
            tuple(cluster.scale_events),
        )

    assert fingerprint() == fingerprint()
