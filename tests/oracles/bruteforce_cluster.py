"""The cluster front door by full scans, kept as the oracle for the arrival path.

Until DESIGN.md §26 ``ClusterServer`` paid for every replica on every
arrival: it filtered all of them into the routable list, walked every
replica's three terminal lists to reconcile, and read the
``shortest_queue`` key through generators over each manager's workers and
queues.  ``tests/test_cluster_routing.py`` holds the cached candidate list,
the reconcile that skips replicas with no new outcome, and the one-call
key to these scans, so the code under test is never its own reference.
"""

from typing import Dict, List, Tuple

from repro.cluster.replica import ALIVE, DRAINING
from tests.oracles.bruteforce_scheduler import recount_ready_nodes


def projected_delay(replica) -> float:
    """``Replica.projected_delay`` in its earlier form: the least backlog
    over the alive workers' devices, plus the scheduler's ready nodes
    (recounted) times the per-node service estimate over the alive
    devices."""
    manager = replica.server.manager
    if not manager.alive_devices:
        return float("inf")
    backlog = min(w.device.backlog() for w in manager.workers if w.alive)
    ready = sum(recount_ready_nodes(queue) for queue in manager.scheduler.queues)
    queued = ready * manager.node_time_estimate
    return backlog + queued / manager.alive_devices


def predicted_delay(replica) -> float:
    """``Replica.predicted_delay`` falling back to :func:`projected_delay`."""
    predictor = replica.predictor
    if predictor is not None and predictor.ready:
        return predictor.predicted_queue_delay(replica.outstanding())
    return projected_delay(replica)


def scan_candidates(cluster) -> List:
    """The routable replicas by a fresh scan: ALIVE ones in replica-id
    order, otherwise DRAINING ones."""
    alive = [r for r in cluster.replicas if r.state == ALIVE]
    return alive or [r for r in cluster.replicas if r.state == DRAINING]


class ReconcileOracle:
    """Where every logical request went, booked apart from the cluster's
    own cursors and shadow maps, so the cluster's terminal lists can be
    rebuilt from scratch at any point.

    ``routed`` records each decision's (replica, shadow id) — the shadow a
    replica materialises next takes its ``_next_shadow_id`` — so a
    re-routed request's latest shadow replaces its earlier one;
    ``front_door`` records the requests the cluster rejected itself."""

    def __init__(self):
        self.routed: Dict[int, Tuple[int, int]] = {}
        self.front_door: Dict[int, object] = {}

    def on_decision(self, request, replica) -> None:
        self.routed[request.request_id] = (replica.replica_id, replica._next_shadow_id)

    def on_front_door_reject(self, request) -> None:
        self.front_door[request.request_id] = request

    def terminal_ids(self, cluster) -> List[List[int]]:
        """Finished, timed-out and rejected logical ids (sorted) as a
        reconcile of every replica from its first outcome would fold them:
        a logical request takes the outcome of its latest shadow."""
        kind_of = {}
        for replica in cluster.replicas:
            server = replica.server
            for kind, bucket in enumerate((server.finished, server.timed_out, server.rejected)):
                for shadow in bucket:
                    kind_of[replica.replica_id, shadow.request_id] = kind
        lists: List[List[int]] = [[], [], sorted(self.front_door)]
        for logical_id, latest in self.routed.items():
            if logical_id in self.front_door:
                continue  # lost with every replica: the front door's reject
            kind = kind_of.get(latest)
            if kind is not None:
                lists[kind].append(logical_id)
        return [sorted(ids) for ids in lists]
