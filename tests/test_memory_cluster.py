"""Cluster-level memory awareness: the ``free_memory`` load metric, the
``most_free_memory`` router, and front-door memory admission.

The routing contract is the same as every other load-aware policy
(``tests/test_cluster_routing.py``): every single decision must equal an
independent from-scratch min + seeded tie-break over the candidates.
"""

from __future__ import annotations

import pytest

from tests.chaos_helpers import chaos_seeds
from tests.cluster_helpers import assert_cluster_invariants

from repro.cluster import build_cluster
from repro.cluster.routing import tie_break
from repro.registry.presets import seq2seq_dynamic_cluster_spec
from repro.workload import Seq2SeqDataset
from repro.workload.arrivals import PoissonArrivals


def _cluster(
    num_replicas=2,
    seed=0,
    capacity_requests=24,
    admission_free_requests=None,
    router="most_free_memory",
    replica_failures=(),
):
    spec = seq2seq_dynamic_cluster_spec(
        num_replicas=num_replicas,
        router=router,
        seed=seed,
        capacity_requests=capacity_requests,
        admission_free_requests=admission_free_requests,
    )
    return build_cluster(spec, replica_failures=replica_failures)


def _run(cluster, rate=400.0, num_requests=150, arrival_seed=7):
    dataset = Seq2SeqDataset(seed=1, max_length=20, dynamic=True)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(
            cluster.submit(dataset.sample_one(), arrival_time=when)
        )
    cluster.drain()
    return submitted


# -- the free_memory metric -------------------------------------------------


def test_replica_free_memory_sums_alive_devices():
    cluster = _cluster(num_replicas=2, capacity_requests=24)
    for replica in cluster.replicas:
        manager = replica.server.manager
        expected = sum(
            w.device.memory.free() for w in manager.workers if w.alive
        )
        assert replica.free_memory() == expected
        assert replica.free_memory() > 0  # weights deducted, state empty


def test_replica_free_memory_inf_without_model():
    """Replicas without a memory model report infinite free bytes, so the
    router ties across all of them and degrades to seeded-uniform."""
    from tests.cluster_helpers import build_lstm_cluster, run_cluster

    cluster = build_lstm_cluster(num_replicas=2, router="most_free_memory")
    for replica in cluster.replicas:
        assert replica.free_memory() == float("inf")
    submitted = run_cluster(cluster, num_requests=60)
    assert_cluster_invariants(cluster, submitted)
    # Both replicas served traffic (uniform split, not all-on-one).
    assert all(r.routed > 0 for r in cluster.replicas)


# -- router == independent oracle, every decision ---------------------------


@pytest.mark.parametrize("seed", chaos_seeds())
def test_every_decision_matches_brute_force(seed):
    cluster = _cluster(num_replicas=3, seed=seed, capacity_requests=24)
    router = cluster.router
    original = router.choose
    checked = {"decisions": 0}

    def choose(request, candidates, now):
        keys = [-replica.free_memory() for replica in candidates]
        best = min(keys)
        tied = [r for r, k in zip(candidates, keys) if k == best]
        expected = tie_break(router.seed, request.request_id, tied)
        actual = original(request, candidates, now)
        assert actual is expected, (
            f"decision {checked['decisions']}: router chose "
            f"{actual.replica_id}, oracle chose {expected.replica_id}"
        )
        checked["decisions"] += 1
        return actual

    router.choose = choose
    submitted = _run(cluster, arrival_seed=seed)
    assert_cluster_invariants(cluster, submitted)
    assert checked["decisions"] > 0


def test_router_spreads_by_free_bytes():
    """Under memory pressure the router keeps replicas' peak usage close:
    no replica evicts while another has untouched headroom."""
    cluster = _cluster(num_replicas=2, capacity_requests=24)
    submitted = _run(cluster)
    assert_cluster_invariants(cluster, submitted)
    routed = [replica.routed for replica in cluster.replicas]
    assert all(routed), f"a replica never saw traffic: {routed}"
    # Both replicas' devices were actually exercised.
    for replica in cluster.replicas:
        for worker in replica.server.manager.workers:
            assert worker.device.memory.peak_reserved > 0
            assert worker.device.memory.state_reserved == 0  # telescoped


# -- front-door admission ---------------------------------------------------


def test_memory_admission_sheds_and_counts():
    """With the admission threshold set and the cluster saturated, arrivals
    are rejected with ``"memory_reject"`` and tallied."""
    cluster = _cluster(
        num_replicas=2, capacity_requests=24, admission_free_requests=20
    )
    submitted = _run(cluster, rate=800.0, num_requests=200)
    assert_cluster_invariants(cluster, submitted)
    counters = cluster.cluster_counters
    assert counters.memory_rejections > 0, "threshold never shed an arrival"
    shed = [
        r for r in cluster.rejected if r.cancel_reason == "memory_reject"
    ]
    assert len(shed) == counters.memory_rejections


def test_no_threshold_no_shedding():
    cluster = _cluster(
        num_replicas=2, capacity_requests=24, admission_free_requests=None
    )
    submitted = _run(cluster)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.cluster_counters.memory_rejections == 0
    assert not any(
        r.cancel_reason == "memory_reject" for r in cluster.rejected
    )


def test_admission_survives_replica_loss():
    """A replica dying under memory admission: the threshold keeps being
    evaluated over the survivors and the run drains clean."""
    cluster = _cluster(
        num_replicas=2,
        capacity_requests=24,
        admission_free_requests=8,
        replica_failures=[(0.05, 1)],
    )
    submitted = _run(cluster, rate=600.0, num_requests=150)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.cluster_counters.replicas_lost == 1
