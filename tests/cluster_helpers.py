"""Shared machinery for the cluster test suites.

Mirrors ``chaos_helpers`` one level up: drive a ``ClusterServer`` through
a fixed-seed Poisson workload, then assert the *cluster* invariants —
every logical request terminal exactly once at cluster level, no leaked
events, counters reconciled across replicas.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cluster import ClusterServer, build_cluster
from repro.core.request import RequestState
from repro.registry.presets import lstm_cluster_spec
from repro.workload import SequenceDataset
from repro.workload.arrivals import PoissonArrivals
from tests.oracles.reference_values import recount_pending


def build_lstm_cluster(
    num_replicas: int = 2,
    router: str = "round_robin",
    seed: int = 0,
    max_batch: int = 64,
    replica_failures: Sequence = (),
    autoscaler=None,
    router_params=None,
    sla=None,
) -> ClusterServer:
    spec = lstm_cluster_spec(
        num_replicas=num_replicas,
        router=router,
        max_batch=max_batch,
        seed=seed,
        autoscaler=autoscaler,
        router_params=router_params,
    )
    if sla is not None:  # cluster-level admission control (SLAConfig form)
        spec = spec.replace(sla=sla)
    return build_cluster(spec, replica_failures=replica_failures)


def run_cluster(
    cluster: ClusterServer,
    rate: float = 3000.0,
    num_requests: int = 300,
    arrival_seed: int = 7,
    deadline: Optional[float] = None,
    dataset_seed: int = 1,
) -> List:
    """Submit a fixed-seed workload, drain, return the logical requests."""
    dataset = SequenceDataset(seed=dataset_seed)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(
            cluster.submit(
                dataset.sample_one(), arrival_time=when, deadline=deadline
            )
        )
    cluster.drain()
    return submitted


def assert_cluster_invariants(cluster: ClusterServer, submitted: List) -> None:
    """The invariants every cluster run must satisfy, failures or not.

    1. Every submitted logical request reaches exactly one terminal state
       and appears in exactly one of the cluster's terminal lists.
    2. No replica still owns a logical request, and the shared loop drained
       clean.
    3. Routing bookkeeping reconciles: every terminal outcome was either
       routed to some replica or rejected at the front end.
    """
    by_state = {
        RequestState.FINISHED: cluster.finished,
        RequestState.TIMED_OUT: cluster.timed_out,
        RequestState.REJECTED: cluster.rejected,
    }
    reported_ids = []
    for state, bucket in by_state.items():
        for request in bucket:
            assert request.state is state, (request, state)
            reported_ids.append(request.request_id)
    assert len(reported_ids) == len(set(reported_ids)), "request reported twice"
    assert sorted(reported_ids) == sorted(r.request_id for r in submitted), (
        "hung or unreported requests: "
        f"{set(r.request_id for r in submitted) ^ set(reported_ids)}"
    )
    for request in submitted:
        assert request.terminal, f"request {request.request_id} never terminal"
        assert request.terminal_time is not None

    assert cluster.loop.pending() == 0 == recount_pending(cluster.loop), (
        "leaked events"
    )
    for replica in cluster.replicas:
        assert not replica.shadow_of, (
            f"replica {replica.replica_id} still owns logical requests"
        )

    # Front-end accounting: every logical request was routed at least once
    # or rejected by the cluster itself.
    counters = cluster.cluster_counters
    total_routed = sum(replica.routed for replica in cluster.replicas)
    assert total_routed == (
        cluster.router.decisions
    ), "router decisions and routed shadows disagree"
    front_end_rejections = (
        counters.cluster_rejections
        + counters.requests_lost
        + counters.sla_rejections
        + counters.memory_rejections
    )
    assert total_routed + front_end_rejections >= len(submitted), (
        "some requests neither routed nor rejected"
    )
