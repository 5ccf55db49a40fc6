"""The cluster front door by full scans, kept as the oracle for the arrival path.

Until DESIGN.md §26 ``ClusterServer`` paid for every replica on every
arrival: it filtered all of them into the routable list, walked every
replica's three terminal lists to reconcile, and read the
``shortest_queue`` key through generators over each manager's workers and
queues.  Since §36 a replica's engine hook folds each outcome the instant
it happens.  ``tests/test_cluster_routing.py`` holds the cached candidate
list, the terminal lists those hooks fill, and the one-call key to these
scans, so the code under test is never its own reference.
"""

import weakref
from typing import Dict, List, Set, Tuple

from repro.cluster.replica import ALIVE, DRAINING
from tests.oracles.bruteforce_scheduler import recount_ready_nodes
from tests.oracles.latency_predictor import LatencyPredictor


def projected_delay(replica) -> float:
    """``Replica.projected_delay`` in its earlier form: the least backlog
    over the alive workers' devices, plus the scheduler's ready nodes
    (recounted) times the per-node service estimate over the alive
    devices."""
    manager = replica.server.manager
    if not manager.alive_devices:
        return float("inf")
    now = manager.loop.now()
    backlog = min(max(0.0, w.device.free_at - now) for w in manager.workers if w.alive)
    ready = sum(recount_ready_nodes(queue) for queue in manager.scheduler.queues)
    queued = ready * manager.node_time_estimate
    return backlog + queued / manager.alive_devices


# replica -> [its oracle predictor, finished shadows fed to it so far]
_FED = weakref.WeakKeyDictionary()


def predicted_delay(replica) -> float:
    """``Replica.predicted_delay`` by the predictor it replaced: a
    :class:`LatencyPredictor` fed, in finish order, the latency of every
    shadow the replica's server filed as finished and the gaps between
    their finish times (the cluster reads this key only on a live replica,
    which still owns every shadow it served); :func:`projected_delay`
    until it has seen one."""
    entry = _FED.setdefault(replica, [LatencyPredictor(), 0])
    predictor, fed = entry
    finished = replica.server.finished
    for index in range(fed, len(finished)):
        shadow = finished[index]
        predictor.observe_request(shadow.finish_time - shadow.arrival_time)
        if index:
            predictor.observe_gap(shadow.finish_time - finished[index - 1].finish_time)
    entry[1] = len(finished)
    if predictor.ready:
        return predictor.predicted_queue_delay(replica.outstanding())
    return projected_delay(replica)


def scan_candidates(cluster) -> List:
    """The routable replicas by a fresh scan: ALIVE ones in replica-id
    order, otherwise DRAINING ones."""
    alive = [r for r in cluster.replicas if r.state == ALIVE]
    return alive or [r for r in cluster.replicas if r.state == DRAINING]


class ReconcileOracle:
    """Where every logical request went, booked apart from the cluster's
    own shadow maps and fold, so the cluster's terminal lists can be
    rebuilt from scratch at any point — before every routing decision,
    re-routes inside a replica loss included.

    ``routed`` records each decision's (replica, shadow id) — the shadow a
    replica materialises next takes its ``_next_shadow_id`` — so a
    re-routed request's latest shadow replaces its earlier one;
    ``front_door`` records the requests the cluster rejected itself;
    ``lost`` the shadows a replica loss found live, whose cancellation by
    the teardown is no outcome of their logical request."""

    def __init__(self):
        self.routed: Dict[int, Tuple[int, int]] = {}
        self.front_door: Dict[int, object] = {}
        self.lost: Set[Tuple[int, int]] = set()

    def on_decision(self, request, replica) -> None:
        self.routed[request.request_id] = (replica.replica_id, replica._next_shadow_id)

    def on_front_door_reject(self, request) -> None:
        self.front_door[request.request_id] = request

    def on_replica_loss(self, cluster, replica_id: int) -> None:
        """Before the loss of ``replica_id`` runs: every latest shadow
        there that its server has not yet filed as terminal dies with it."""
        if replica_id >= len(cluster.replicas):
            return
        server = cluster.replicas[replica_id].server
        done = {
            shadow.request_id
            for bucket in (server.finished, server.timed_out, server.rejected)
            for shadow in bucket
        }
        for latest in self.routed.values():
            if latest[0] == replica_id and latest[1] not in done:
                self.lost.add(latest)

    def terminal_ids(self, cluster) -> List[List[int]]:
        """Finished, timed-out and rejected logical ids (sorted) as a
        rebuild of every replica from its first outcome would file them:
        a logical request takes the outcome of its latest shadow, unless a
        replica loss found that shadow live."""
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
            if latest in self.lost:
                continue  # re-routed next, or rejected at the front door
            kind = kind_of.get(latest)
            if kind is not None:
                lists[kind].append(logical_id)
        return [sorted(ids) for ids in lists]
