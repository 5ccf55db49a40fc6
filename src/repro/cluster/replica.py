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

The replica is an :class:`~repro.extension.EngineExtension` of its own
engine: its ``on_terminal`` hands a shadow's logical request to the
cluster's fold the instant the shadow turns terminal, so the cluster reads
none of the engine's terminal lists (DESIGN.md §36).

With a single replica the shadow stream is, event for event, the stream a
bare ``build_server()`` run would see (same ids, same arrival times, same
event-loop sequence numbers), which is why a 1-replica cluster is
bit-identical to the standalone server (``tests/test_cluster_identity``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.batchmaker import BatchMakerServer
from repro.core.request import InferenceRequest
from repro.extension import EngineExtension

# Replica lifecycle.  WARMING: built, paying the autoscaler's warm-up cost,
# not yet routable.  ALIVE: routable.  DRAINING: autoscaler is retiring it —
# no new work, serving out its outstanding shadows.  RETIRED: drained empty.
# DEAD: lost to a replica failure.
WARMING = "warming"
ALIVE = "alive"
DRAINING = "draining"
RETIRED = "retired"
DEAD = "dead"


class Replica(EngineExtension):
    """A cluster member: one BatchMaker server plus the routing-side
    bookkeeping.  ``fold(replica, logical, shadow)`` is the cluster's
    callback for a terminal shadow whose logical request is still this
    replica's responsibility."""

    def __init__(
        self,
        replica_id: int,
        server: BatchMakerServer,
        fold: Optional[Callable] = None,
        state: str = ALIVE,
        created_at: float = 0.0,
    ):
        self.replica_id = replica_id
        self.server = server
        self.fold = fold
        # The engine's manager, read by the per-arrival routing key.
        self.manager = server.manager
        self.state = state
        self.created_at = created_at
        # Shadows routed here whose logical request is still this replica's
        # responsibility; ``on_terminal`` pops an entry when its shadow turns
        # terminal, replica loss pops them all (re-route), after which any
        # late outcomes from this replica are ignored.
        self.shadow_of: Dict[int, InferenceRequest] = {}
        self.routed = 0
        self._next_shadow_id = 0
        # The Little's-law pair behind ``predicted_delay``: EWMAs (weight
        # 0.05, the first sample taken whole) of a finished shadow's latency
        # and of the gap between consecutive finishes here.  Per replica, so
        # a finish moves one replica's key; the previous finish instant
        # turns finish times into gaps, and is None until the first finish.
        self.latency_ewma = 0.0
        self.gap_ewma = 0.0
        self._last_finish: Optional[float] = None
        # Heterogeneous-fleet identity (repro.registry ClusterSpec
        # ``device_classes``): the class name and its rank in declaration
        # order (0 = first declared; class-affinity routing maps length
        # buckets onto ranks).  Defaults describe a homogeneous cluster.
        self.device_class: Optional[str] = None
        self.class_rank = 0

    # -- routing interface ----------------------------------------------------

    def outstanding(self) -> int:
        """Shadows routed here that are not yet terminal."""
        return len(self.shadow_of)

    def free_memory(self) -> float:
        """Free device-memory bytes over the engine's alive workers;
        infinite without a memory model (every replica then ties and the
        metric and memory admission are inert)."""
        memory = self.server.memory
        return float("inf") if memory is None else memory.free_bytes()

    def energy_cost(self) -> float:
        """Estimated marginal joules to serve one cell on this replica
        (``EnergyAccounting.joules_per_cell``); zero without an energy
        model, so the ``cheapest_energy`` metric is then inert."""
        energy = self.server.energy
        return 0.0 if energy is None else energy.joules_per_cell()

    def predicted_delay(self, now: float) -> float:
        """Predicted seconds until a request newly routed here at ``now``
        completes: the outstanding shadow count times the EWMA
        inter-finish gap (Little's law — the ``predicted_delay`` routing
        metric and the cluster's SLA admission estimate), or times the
        EWMA finished latency while every finish so far shared one
        instant; before the first finish, the manager's projected queueing
        delay (``Manager.projected_queue_delay``)."""
        if self._last_finish is None:
            return self.manager.projected_queue_delay(now)
        gap = self.gap_ewma
        return len(self.shadow_of) * (gap if gap > 0.0 else self.latency_ewma)

    # -- shadow lifecycle ------------------------------------------------------

    def on_terminal(self, shadow: InferenceRequest) -> None:
        """The engine hook: a shadow reached a terminal state, so its
        logical request (if this replica still owns it) folds now.  A
        finish it owned also folds into :meth:`predicted_delay`'s pair."""
        logical = self.shadow_of.pop(shadow.request_id, None)
        if logical is not None:
            finish = shadow.finish_time
            if finish is not None:
                latency = finish - shadow.arrival_time
                if self.latency_ewma == 0.0:
                    self.latency_ewma = latency
                else:
                    self.latency_ewma += 0.05 * (latency - self.latency_ewma)
                last = self._last_finish
                if last is not None:
                    gap = finish - last
                    if self.gap_ewma == 0.0:
                        self.gap_ewma = gap
                    else:
                        self.gap_ewma += 0.05 * (gap - self.gap_ewma)
                self._last_finish = finish
            self.fold(self, logical, shadow)

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
