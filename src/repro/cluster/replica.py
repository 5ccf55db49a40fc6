"""One replica of the serving cluster.

A :class:`Replica` wraps a server built from the cluster spec's replica
template and tracks the *shadow* requests the cluster routed to it.  The
cluster's logical requests never enter a replica engine directly — each
routing decision materialises a fresh shadow :class:`InferenceRequest`
(replica-local id, same payload, same absolute deadline) and hands it to
the replica server's ``_accept`` at the logical arrival time.  That
indirection is what makes replica loss recoverable: when a replica dies,
the shadows die with it and the cluster re-routes the still-live logical
requests as *new* shadows on survivors, while each logical request still
reaches exactly one terminal state.

With a single replica the shadow stream is, event for event, the stream a
bare ``build_server()`` run would see (same ids, same arrival times, same
event-loop sequence numbers), which is why a 1-replica cluster is
bit-identical to the standalone server (``tests/test_cluster_identity``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.request import InferenceRequest
from repro.server import InferenceServer

# Replica lifecycle.  WARMING: built, paying the autoscaler's warm-up cost,
# not yet routable.  ALIVE: routable.  DRAINING: autoscaler is retiring it —
# no new work, serving out its outstanding shadows.  RETIRED: drained empty.
# DEAD: lost to a replica failure.
WARMING = "warming"
ALIVE = "alive"
DRAINING = "draining"
RETIRED = "retired"
DEAD = "dead"


class Replica:
    """A cluster member: one server plus the routing-side bookkeeping."""

    def __init__(
        self,
        replica_id: int,
        server: InferenceServer,
        state: str = ALIVE,
        created_at: float = 0.0,
    ):
        self.replica_id = replica_id
        self.server = server
        # BatchMaker engines' manager (None for the baselines), read by the
        # per-arrival routing key.
        self.manager = getattr(server, "manager", None)
        self.state = state
        self.created_at = created_at
        self.activated_at: Optional[float] = created_at if state == ALIVE else None
        # Shadows routed here whose logical request is still this replica's
        # responsibility; reconciliation pops an entry when its shadow turns
        # terminal, replica loss pops them all (re-route), after which any
        # late completions from this replica are ignored.
        self.shadow_of: Dict[int, InferenceRequest] = {}
        self.routed = 0
        self._next_shadow_id = 0
        # Reconciliation cursors into the server's finished / timed_out /
        # rejected lists (list order is deterministic, so lazy reconcile is
        # deterministic too); their sum against the lists' lengths lets
        # reconcile skip a replica with no new outcome.
        self.cursors = [0, 0, 0]
        # EWMA of observed shadow latency; the shortest-queue router's
        # projected-delay fallback for engines without a manager.
        self.ewma_latency = 0.0
        # Optional per-replica LatencyPredictor behind the predicted_delay
        # routing metric; per-replica (not cluster-shared) so a completion
        # moves one replica's key, not all of them.  The previous
        # completion instant turns finish times into inter-completion gaps.
        self.predictor = None
        self._last_finish: Optional[float] = None
        # Heterogeneous-fleet identity (repro.registry ClusterSpec
        # ``device_classes``): the class name, its rank in declaration
        # order (0 = first declared; class-affinity routing maps length
        # buckets onto ranks) and the uniform cost-model slowdown applied
        # at build time.  Defaults describe a homogeneous cluster.
        self.device_class: Optional[str] = None
        self.class_rank = 0
        self.latency_scale = 1.0

    # -- routing interface ----------------------------------------------------

    def outstanding(self) -> int:
        """Shadows routed here that are not yet terminal (O(1): every shadow
        ends up in exactly one of the server's terminal lists)."""
        server = self.server
        return self.routed - (
            len(server.finished) + len(server.timed_out) + len(server.rejected)
        )

    def projected_delay(self) -> float:
        """Seconds a new request would plausibly wait on this replica.

        BatchMaker replicas expose the manager's projected queueing delay
        (min device backlog + EWMA drain time of queued ready nodes); other
        engines fall back to outstanding-requests x EWMA request latency.
        """
        manager = self.manager
        if manager is None:
            return self.ewma_latency * self.outstanding()
        if not manager.alive_devices:
            return math.inf
        return manager.projected_queue_delay()

    def free_memory(self) -> float:
        """Free device-memory bytes over the engine's alive workers;
        infinite for engines without a memory model (every replica then
        ties and the metric and memory admission are inert)."""
        memory = getattr(self.server, "memory", None)
        return float("inf") if memory is None else memory.free_bytes()

    def energy_cost(self) -> float:
        """Estimated marginal joules to serve one cell on this replica
        (``EnergyAccounting.joules_per_cell``); zero for engines without
        an energy model, so the ``cheapest_energy`` metric is then inert."""
        energy = getattr(self.server, "energy", None)
        return 0.0 if energy is None else energy.joules_per_cell()

    def energy_joules(self) -> float:
        """Integrated joules on this replica's engine (0.0 without an
        energy model)."""
        joules = getattr(self.server, "energy_joules", None)
        return joules() if joules is not None else 0.0

    def predicted_delay(self) -> float:
        """Predicted seconds until a request newly routed here completes:
        the outstanding shadow count times the per-replica predictor's EWMA
        inter-completion gap (Little's law — the ``predicted_delay``
        routing metric and the admission estimate), falling back to
        :meth:`projected_delay` until the predictor has seen a completion."""
        predictor = self.predictor
        if predictor is not None and predictor.ready:
            return predictor.predicted_queue_delay(self.outstanding())
        return self.projected_delay()

    def observe_latency(self, latency: float, finish_time: Optional[float] = None) -> None:
        if self.ewma_latency == 0.0:
            self.ewma_latency = latency
        else:
            self.ewma_latency += 0.2 * (latency - self.ewma_latency)
        if self.predictor is not None:
            self.predictor.observe_request(latency)
            if finish_time is not None:
                if self._last_finish is not None:
                    self.predictor.observe_gap(finish_time - self._last_finish)
                self._last_finish = finish_time

    # -- shadow lifecycle ------------------------------------------------------

    def route(self, logical: InferenceRequest, now: float) -> InferenceRequest:
        """Materialise a shadow for ``logical`` and start serving it."""
        shadow = InferenceRequest(self._next_shadow_id, logical.payload, now)
        self._next_shadow_id += 1
        shadow.deadline = logical.deadline  # absolute; shared virtual clock
        self.shadow_of[shadow.request_id] = logical
        self.routed += 1
        self.server._accept(shadow)
        return shadow

    def orphan_logicals(self):
        """Pop and return every still-owned logical request in shadow-id
        (= routing) order — the deterministic re-route order on replica
        loss."""
        orphans = [self.shadow_of[sid] for sid in sorted(self.shadow_of)]
        self.shadow_of.clear()
        return orphans

    def __repr__(self) -> str:
        return (
            f"<Replica {self.replica_id} {self.state} "
            f"routed={self.routed} outstanding={self.outstanding()}>"
        )
