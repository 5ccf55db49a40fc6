"""The 1-replica cluster is the server: bit-identical fixed-seed runs.

The cluster's shadow-request indirection must add zero perturbation: with
one replica and no autoscaler, the replica engine sees the exact event
stream a bare ``build_server()`` run sees — same request ids, same arrival
times, same event sequence numbers — so the outcome fingerprints (exact
terminal timestamps, retry counts, batch-size histogram) match bit for bit.
"""

from tests.chaos_helpers import outcome_fingerprint
from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)

from repro.registry import build_server
from repro.workload import SequenceDataset
from repro.workload.arrivals import PoissonArrivals


def _run_bare(spec, rate, num_requests, arrival_seed, dataset_seed):
    server = build_server(spec)
    dataset = SequenceDataset(seed=dataset_seed)
    submitted = [
        server.submit(dataset.sample_one(), arrival_time=when)
        for when in PoissonArrivals(rate, seed=arrival_seed).times(num_requests)
    ]
    server.drain()
    return server, submitted


def test_one_replica_cluster_bit_identical_to_bare_server():
    cluster = build_lstm_cluster(num_replicas=1, router="round_robin", seed=7)
    # The bare run uses the cluster's own replica template, so both engines
    # are configured identically.
    bare, _ = _run_bare(
        cluster.spec.replica, rate=3000.0, num_requests=250,
        arrival_seed=7, dataset_seed=1,
    )
    submitted = run_cluster(cluster, rate=3000.0, num_requests=250)
    assert_cluster_invariants(cluster, submitted)
    assert outcome_fingerprint(cluster.replicas[0].server) == outcome_fingerprint(
        bare
    )
    assert cluster.mean_batch_size() == bare.mean_batch_size() > 1.0


def test_mean_batch_size_weighs_tasks_not_replicas():
    """Fleet cells / fleet tasks: a replica that ran 3 tasks must not count
    as much as one that ran 3000."""
    cluster = build_lstm_cluster(num_replicas=2)
    assert cluster.mean_batch_size() == 0.0  # nothing ran yet
    idle, busy = (r.server.manager.scheduler for r in cluster.replicas)
    idle.batch_size_counts[1] = 3
    busy.batch_size_counts[10] = 3000
    assert cluster.mean_batch_size() == (3 * 1 + 3000 * 10) / 3003


def test_one_replica_cluster_every_router_identical():
    fingerprints = set()
    for router in (
        "round_robin",
        "least_outstanding",
        "shortest_queue",
        "length_bucketed",
    ):
        cluster = build_lstm_cluster(num_replicas=1, router=router, seed=3)
        run_cluster(cluster, rate=2500.0, num_requests=150)
        fingerprints.add(outcome_fingerprint(cluster.replicas[0].server))
    # With one candidate every policy must make the same (only) choice.
    assert len(fingerprints) == 1


def test_cluster_logical_outcomes_match_replica_outcomes():
    cluster = build_lstm_cluster(num_replicas=1, seed=7)
    submitted = run_cluster(cluster, rate=3000.0, num_requests=200)
    shadow_server = cluster.replicas[0].server
    assert len(cluster.finished) == len(shadow_server.finished)
    for logical, shadow in zip(
        sorted(cluster.finished, key=lambda r: r.request_id),
        sorted(shadow_server.finished, key=lambda r: r.request_id),
    ):
        assert logical.request_id == shadow.request_id  # same submission order
        assert logical.finish_time == shadow.finish_time
        assert logical.start_time == shadow.start_time
    assert_cluster_invariants(cluster, submitted)


def test_fixed_seed_cluster_run_is_reproducible():
    def fingerprint():
        cluster = build_lstm_cluster(
            num_replicas=3, router="shortest_queue", seed=11
        )
        run_cluster(cluster, rate=6000.0, num_requests=400)
        return (
            tuple(
                (r.request_id, r.state.value, r.terminal_time)
                for r in sorted(
                    cluster.terminal_requests(), key=lambda r: r.request_id
                )
            ),
            tuple(cluster.scale_events),
            tuple(sorted(cluster.cluster_counters.as_dict().items())),
            tuple(replica.routed for replica in cluster.replicas),
        )

    assert fingerprint() == fingerprint()
