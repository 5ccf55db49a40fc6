"""``repro.cluster`` — a simulated multi-replica serving cluster.

N replicas (each an independent BatchMaker server built from the cluster
spec's :class:`~repro.registry.ServerSpec` template; the graph-batching
baselines are comparators and never sit behind the router) share one
deterministic event loop behind a front-end router.  The cluster presents
the ordinary ``InferenceServer`` interface, so every existing harness —
load generator, chaos helpers, experiment sweeps — drives a cluster
unchanged.

Entry points:

* :func:`build_cluster` / :class:`ClusterServer` — construct and run.
* :class:`~repro.registry.ClusterSpec` — the serialisable description.
* :data:`~repro.cluster.routing.ROUTERS` — the routing-policy registry
  (``round_robin``, ``least_outstanding``, ``shortest_queue``,
  ``predicted_delay``, ``most_free_memory``, ``length_bucketed``).
* :class:`AutoscalerConfig` — EWMA-load autoscaling knobs.
* ``replica_failures=[(time, replica_id), ...]`` of :func:`build_cluster` —
  deterministic replica-loss injection.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.cluster import ClusterServer, build_cluster
from repro.cluster.metrics import ClusterCounters, ClusterStats, aggregate_fault_counters
from repro.cluster.replica import ALIVE, DEAD, DRAINING, RETIRED, WARMING, Replica
from repro.cluster.routing import (
    ROUTERS,
    LeastOutstandingRouter,
    LengthBucketedRouter,
    MostFreeMemoryRouter,
    PredictedDelayRouter,
    RoundRobinRouter,
    RoutingPolicy,
    ShortestQueueRouter,
    make_router,
    payload_length,
    tie_break,
)
from repro.registry import ClusterSpec

__all__ = [
    "ALIVE",
    "DEAD",
    "DRAINING",
    "RETIRED",
    "WARMING",
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterCounters",
    "ClusterServer",
    "ClusterSpec",
    "ClusterStats",
    "LeastOutstandingRouter",
    "LengthBucketedRouter",
    "MostFreeMemoryRouter",
    "PredictedDelayRouter",
    "ROUTERS",
    "Replica",
    "RoundRobinRouter",
    "RoutingPolicy",
    "ShortestQueueRouter",
    "aggregate_fault_counters",
    "build_cluster",
    "make_router",
    "payload_length",
    "tie_break",
]
