"""The serving cluster: N replicas behind a front-end router.

``ClusterServer`` implements the common :class:`InferenceServer` interface
— ``submit`` / ``drain`` / ``finished`` — so the load generator and the
experiment harness drive a whole cluster exactly like one server.  All
replicas share one deterministic event loop; the cluster routes each
request to a replica at its arrival time (when queue states are real, not
at submission time when they are not), and folds each replica outcome
onto its own logical request the instant the outcome happens.

Life of a request:

1. ``submit`` creates the logical :class:`InferenceRequest` (cluster-wide
   id) and schedules its arrival.
2. At arrival, the router picks a replica among the routable candidates
   (replica-id order, seeded tie-breaks — DESIGN.md §11) and the replica
   materialises a *shadow* request that runs on its engine.
3. When the shadow turns terminal, the replica — an extension of its own
   engine — hands the logical request to the cluster's fold, which copies
   the outcome onto it and files it (``InferenceServer._file``) under
   ``finished`` / ``timed_out`` / ``rejected`` (completion order;
   DESIGN.md §36, §43).
4. If the replica dies first, the cluster re-routes the logical request
   as a fresh shadow on a survivor; only with no survivor is it rejected.

With one replica and no autoscaler the cluster adds *zero* events and
*zero* decisions: the shadow stream equals a bare ``build_server()`` run
event for event, so the fixed-seed outcome fingerprint is bit-identical
(``tests/test_cluster_identity.py``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.metrics import ClusterCounters, ClusterStats, aggregate_fault_counters
from repro.cluster.replica import ALIVE, DEAD, DRAINING, RETIRED, WARMING, Replica
from repro.cluster.routing import make_router
from repro.core.request import InferenceRequest, RequestState
from repro.faults import DeviceFailure
from repro.faults.sla import SLAConfig
from repro.gpu.memory import MemorySpec
from repro.registry import build_server
from repro.registry.specs import ClusterSpec
from repro.server import InferenceServer, ensure_loop
from repro.sim.events import EventLoop
from repro.trace import events as trace_events


# Reject reason -> the ClusterCounters field that tallies it at arrival.
_REJECT_COUNTER = {
    "no_replicas": "cluster_rejections",
    "sla_reject": "sla_rejections",
    "memory_reject": "memory_rejections",
}


class ClusterServer(InferenceServer):
    """N replicas of one :class:`~repro.registry.ServerSpec`, one front end.

    Parameters
    ----------
    spec:
        The :class:`~repro.registry.ClusterSpec` describing the cluster.
    loop:
        Shared event loop (default: a fresh one).
    replica_failures:
        ``(time, replica_id)`` pairs: replicas die deterministically at
        scheduled virtual times, injected in ``(time, id)`` order, mirroring
        ``FaultPlan.device_failures`` one level up.  A negative time or id
        is refused (``DeviceFailure``'s checks; a negative id would index
        the last replica).
    replica_runtime:
        Runtime-only keyword overrides passed to every replica's
        ``build_server`` call (``sla=...``, ``fault_plan=...``,
        ``cost_model=...``); never serialised, applied uniformly.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        loop: Optional[EventLoop] = None,
        replica_failures: Sequence = (),
        **replica_runtime: Any,
    ):
        name = spec.name or f"Cluster[{spec.router} x{spec.num_replicas}]"
        super().__init__(ensure_loop(loop), name)
        self.spec = spec
        self.router = make_router(spec.router, seed=spec.seed, **spec.router_params)
        self._replica_runtime = dict(replica_runtime)
        # Front-door admission (DESIGN.md §14, §15): an ordered tuple of
        # gates, each returning a reject reason or None; the first reason
        # wins.  A cluster-level SLA arms the SLO gate; a MemorySpec
        # carrying ``admission_free_bytes`` arms the memory gate.
        self.sla: Optional[SLAConfig] = SLAConfig.from_dict(spec.sla) if spec.sla else None
        self.memory: Optional[MemorySpec] = (
            MemorySpec.from_dict(spec.memory) if spec.memory else None
        )
        gates = []
        if self.sla is not None:
            gates.append(self._sla_gate)
        if self.memory is not None and self.memory.admission_free_bytes is not None:
            gates.append(self._memory_gate)
        self._gates = tuple(gates)
        self.replicas: List[Replica] = []
        # Kept by ``_set_state`` at the five lifecycle transitions (spawn,
        # activate, drain, retire, loss), read per arrival: the ALIVE
        # replicas, the routable ones (ALIVE, else DRAINING; replica-id
        # order) and the WARMING count (DESIGN.md §26).
        self._alive: List[Replica] = []
        self._routable: List[Replica] = []
        self._warming = 0
        # Heterogeneous fleets (DESIGN.md §17): the initial replica ids'
        # class ranks, expanded from ``device_classes`` in declaration
        # order (empty for a homogeneous cluster), and the class cost
        # models, built once and shared read-only by the class's replicas.
        self._class_plan: List[int] = [
            rank
            for rank, cls in enumerate(spec.device_classes or ())
            for _ in range(int(cls["replicas"]))
        ]
        self._class_cost_models: dict = {}
        self.cluster_counters = ClusterCounters()
        # Deterministic (time, action, replica_id) log of scaling/fault
        # lifecycle transitions; fixed-seed runs replay it exactly.
        self.scale_events: List[tuple] = []
        for _ in range(spec.num_replicas):
            self._add_replica(state=ALIVE)

        self.autoscaler: Optional[Autoscaler] = None
        if spec.autoscaler is not None:
            config = AutoscalerConfig.from_dict(spec.autoscaler)
            if spec.num_replicas < config.min_replicas:
                raise ValueError(
                    f"num_replicas={spec.num_replicas} is below the "
                    f"autoscaler's min_replicas={config.min_replicas}"
                )
            self.autoscaler = Autoscaler(self, config)

        failures = [DeviceFailure(time, replica_id) for time, replica_id in replica_failures]
        for failure in sorted(failures, key=lambda f: (f.time, f.device_id)):
            self.loop.call_at(
                max(failure.time, self.loop.now()),
                lambda rid=failure.device_id: self._replica_failed(rid),
            )
        self._autotrace()

    # -- tracing -------------------------------------------------------------

    def _apply_trace_scope(self, scope) -> None:
        """The cluster records routing/lifecycle events under its own scope
        (replica_id None) and re-attaches every replica's engine to the
        shared recorder under that replica's id, so one buffer holds the
        whole cluster with per-replica lineage."""
        for replica in self.replicas:
            replica.server.attach_trace(self.trace_recorder, replica_id=replica.replica_id)

    def _trace_lifecycle(self, name: str, args: dict, request_id=None, since=None) -> None:
        """A cluster-scope event off the per-arrival path (scaling, replica
        loss, re-routes): an instant, or a span from ``since`` to now."""
        trace = self._trace
        if trace is None:
            return
        if since is None:
            trace.instant(name, trace_events.CLUSTER, request_id=request_id, args=args)
        else:
            trace.span(
                name, trace_events.CLUSTER, since, self.loop.now() - since, args=args
            )

    # -- replica lifecycle ---------------------------------------------------

    def _add_replica(self, state: str) -> Replica:
        replica_id = len(self.replicas)  # ids are list positions
        template = self.spec.replica
        base = template.name if template.name is not None else template.kind
        runtime = dict(self._replica_runtime)
        cls = None
        class_rank = 0
        if self.spec.device_classes is not None:
            if replica_id < len(self._class_plan):
                class_rank = self._class_plan[replica_id]
            else:  # autoscaler spawn: rebalance toward the declared mix
                class_rank = self._pick_spawn_class()
            cls = self.spec.device_classes[class_rank]
            # A class's energy envelope replaces the template's own
            # (DESIGN.md §17); without one the template is untouched.
            if cls.get("energy") is not None:
                template = template.replace(energy=dict(cls["energy"]))
            if "cost_model" not in runtime:
                cost_model = self._class_cost_model(class_rank)
                if cost_model is not None:
                    runtime["cost_model"] = cost_model
        server = build_server(
            template.replace(name=f"{base}#r{replica_id}"), loop=self.loop, **runtime
        )
        replica = Replica(replica_id, server, self._fold, state=state, created_at=self.loop.now())
        server.manager.install(replica)
        if cls is not None:
            replica.device_class = cls["name"]
            replica.class_rank = class_rank
        self.replicas.append(replica)
        self._set_state(replica, state)
        if self.trace_recorder is not None:
            server.attach_trace(self.trace_recorder, replica_id=replica_id)
        return replica

    def _pick_spawn_class(self) -> int:
        """The class an autoscaler spawn should build: the one most
        under-provisioned relative to the declared mix (min serving
        count over declared count; declaration order breaks ties —
        deterministic, no iteration-order dependence)."""
        classes = self.spec.device_classes
        counts = [0] * len(classes)
        for replica in self.replicas:
            if replica.state in (WARMING, ALIVE):
                counts[replica.class_rank] += 1
        return min(
            range(len(classes)),
            key=lambda rank: (counts[rank] / int(classes[rank]["replicas"]), rank),
        )

    def _class_cost_model(self, class_rank: int):
        """The class's re-calibrated cost model, built once and shared by
        the class's replicas: the replica model's calibrated default,
        with the class's named-table overrides registered on top
        (:data:`repro.gpu.costmodel.NAMED_TABLES`), then uniformly
        slowed by ``latency_scale``.  None when the class declares no
        re-calibration (the replica then builds its own default — the
        homogeneous path)."""
        if class_rank in self._class_cost_models:
            return self._class_cost_models[class_rank]
        cls = self.spec.device_classes[class_rank]
        tables = cls.get("tables") or {}
        scale = float(cls.get("latency_scale", 1.0))
        if not tables and scale == 1.0:
            cost_model = None
        else:
            from repro.gpu.costmodel import make_table
            from repro.registry.models import make_model

            template = self.spec.replica
            model = make_model(template.model, **template.model_args)
            cost_model = model.default_cost_model()
            for cell in sorted(tables):
                cost_model.register(cell, make_table(tables[cell]))
            if scale != 1.0:
                cost_model = cost_model.scaled(scale)
        self._class_cost_models[class_rank] = cost_model
        return cost_model

    def _spawn_replica(self, now: float) -> Replica:
        """Autoscaler scale-up: build a replica, make it routable after the
        configured warm-up."""
        warmup = self.autoscaler.config.warmup if self.autoscaler else 0.0
        replica = self._add_replica(state=WARMING if warmup > 0 else ALIVE)
        self.cluster_counters.replicas_spawned += 1
        self.scale_events.append((now, "spawn", replica.replica_id))
        self._trace_lifecycle(
            trace_events.REPLICA_SPAWN, {"replica": replica.replica_id, "warmup": warmup}
        )
        if warmup > 0:
            self.loop.call_after(warmup, lambda: self._activate_replica(replica))
        else:
            self.scale_events.append((now, "activate", replica.replica_id))
        return replica

    def _activate_replica(self, replica: Replica) -> None:
        if replica.state != WARMING:  # lost or retired while warming
            return
        self._set_state(replica, ALIVE)
        now = self.loop.now()
        self.scale_events.append((now, "activate", replica.replica_id))
        self._trace_lifecycle(trace_events.REPLICA_ACTIVATE, {"replica": replica.replica_id})
        # The autoscale warm-up window, from build to routable.
        self._trace_lifecycle(
            trace_events.REPLICA_WARMUP, {"replica": replica.replica_id}, since=replica.created_at
        )

    def _drain_replica(self, now: float) -> None:
        """Autoscaler scale-down: stop routing to the least-loaded alive
        replica (newest id on ties — retire the most recently added) and
        let it serve out its outstanding work.  The autoscaler calls it only
        above its ``min_replicas`` floor."""
        victim = min(self._alive, key=lambda r: (r.outstanding(), -r.replica_id))
        self._set_state(victim, DRAINING)
        self.scale_events.append((now, "drain", victim.replica_id))
        self._maybe_retire(victim)

    def _maybe_retire(self, replica: Replica) -> None:
        if replica.state == DRAINING and replica.outstanding() == 0:
            self._set_state(replica, RETIRED)
            self.cluster_counters.replicas_retired += 1
            self.scale_events.append((self.loop.now(), "retire", replica.replica_id))

    # -- request path --------------------------------------------------------

    def _set_state(self, replica: Replica, state: str) -> None:
        """The one way a replica changes lifecycle state; rebuilds the
        lists the per-arrival path reads.  Routable is replica-id order
        (creation order — never a dict/set walk); with no ALIVE replica,
        DRAINING ones still serve rather than dropping traffic below the
        autoscaler's floor."""
        replica.state = state
        replicas = self.replicas
        self._alive = [r for r in replicas if r.state == ALIVE]
        self._routable = self._alive or [r for r in replicas if r.state == DRAINING]
        self._warming = sum(r.state == WARMING for r in replicas)

    def stop_routing(self) -> None:
        """Drain every ALIVE replica (a live front end's graceful
        shutdown): no new work, each retires once its outstanding shadows
        are terminal — an idle one at once."""
        for replica in self._alive:
            self._set_state(replica, DRAINING)
            self._maybe_retire(replica)

    def _accept(self, request: InferenceRequest) -> None:
        candidates = self._routable
        now = self.loop.now()
        if self._trace is not None:
            self._trace.instant(
                trace_events.REQUEST_ARRIVAL,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )
        if not candidates:
            self._reject(request, "no_replicas")
            return
        for gate in self._gates:
            reason = gate(request, candidates, now)
            if reason is not None:
                self._reject(request, reason)
                return
        replica = self.router.choose(request, candidates, now)
        shadow = replica.route(request, now)
        if self._trace is not None:
            # The (replica, shadow) -> logical mapping: what lets the
            # analyzers stitch a request's cross-replica tree back together.
            self._trace.instant(
                trace_events.CLUSTER_ROUTE,
                trace_events.CLUSTER,
                request_id=request.request_id,
                args={
                    "logical": request.request_id,
                    "replica": replica.replica_id,
                    "shadow": shadow.request_id,
                },
            )
        if self.autoscaler is not None:
            self.autoscaler.observe(now)

    # -- admission control ---------------------------------------------------

    def _reject(
        self, request: InferenceRequest, reason: str, counter: Optional[str] = None
    ) -> None:
        """The front door's one reject path: terminal REJECTED with
        ``reason``, counted (by default under the reason's own
        :class:`ClusterCounters` field), reported, traced."""
        request.mark_rejected(self.loop.now(), reason=reason)
        field = counter or _REJECT_COUNTER[reason]
        counters = self.cluster_counters
        setattr(counters, field, getattr(counters, field) + 1)
        self._file(request)
        if self._trace is not None:
            self._trace.instant(
                trace_events.REQUEST_REJECTED,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
                args={"reason": reason},
            )

    def _sla_gate(
        self, request: InferenceRequest, candidates: List[Replica], now: float
    ) -> Optional[str]:
        """Shed ``request`` when its predicted completion misses its
        deadline (or the best predicted wait exceeds the SLA's queue-delay
        bound)."""
        sla = self.sla
        # Predicted completion wait of the best candidate (outstanding x
        # EWMA inter-finish gap — Little's law — once the replica has seen
        # a finish; projected queue delay before).  The deadline test waits
        # for the first logical completion.
        best_wait = min(r.predicted_delay(now) for r in candidates)
        if sla.max_queue_delay is not None and best_wait > sla.max_queue_delay:
            return "sla_reject"
        deadline = request.deadline
        if deadline is None and sla.default_deadline is not None:
            deadline = now + sla.default_deadline
        if deadline is not None and self.finished:
            if now + best_wait > deadline:
                return "sla_reject"
        return None

    def _memory_gate(
        self, request: InferenceRequest, candidates: List[Replica], now: float
    ) -> Optional[str]:
        """Shed ``request`` while no candidate replica has
        ``admission_free_bytes`` of free device memory — routing it
        anywhere could only trigger evictions the replicas are already
        working off."""
        if max(r.free_memory() for r in candidates) >= self.memory.admission_free_bytes:
            return None
        return "memory_reject"

    # -- outcomes ------------------------------------------------------------

    def _fold(self, replica: Replica, logical: InferenceRequest, shadow) -> None:
        """``replica``'s shadow of ``logical`` just turned terminal (its
        ``on_terminal`` hook): copy progress and outcome onto the logical
        request and file it (the replica has already folded a finish into
        its Little's-law pair).  A draining replica may have served out its
        last shadow."""
        if shadow.start_time is not None:
            logical.mark_started(shadow.start_time)
        logical.retries += shadow.retries
        state = shadow.state
        if state is RequestState.FINISHED:
            logical.result = shadow.result
            logical.mark_finished(shadow.finish_time)
        elif state is RequestState.TIMED_OUT:
            logical.mark_timed_out(shadow.terminal_time, reason=shadow.cancel_reason)
        else:
            logical.mark_rejected(shadow.terminal_time, reason=shadow.cancel_reason)
        self._file(logical)
        self._maybe_retire(replica)

    # -- replica loss --------------------------------------------------------

    def _replica_failed(self, replica_id: int) -> None:
        """A replica drops out of the cluster fault plan's sky: tear its
        engine down and re-route its live work (its outcomes before the
        loss have already folded)."""
        if replica_id >= len(self.replicas):
            return
        replica = self.replicas[replica_id]  # ids are list positions
        if replica.state in (DEAD, RETIRED):
            return
        now = self.loop.now()
        self._set_state(replica, DEAD)
        self.cluster_counters.replicas_lost += 1
        self.scale_events.append((now, "lost", replica.replica_id))
        self._trace_lifecycle(trace_events.REPLICA_LOST, {"replica": replica.replica_id})
        # Claim the still-live logical requests (deterministic shadow-id
        # order) *before* the teardown cancels their shadows, so the
        # replica's hook finds those shadows unmapped and folds nothing.
        # The faults layer's total-device-loss path cancels in-flight work
        # and leaves no replica events on the shared loop.
        orphans = replica.orphan_logicals()
        replica.manager.fail_all_devices()
        # Re-route through the cluster's own routing policy; reject only on
        # total loss.
        for logical in orphans:
            if logical.terminal:
                continue
            candidates = self._routable
            if candidates:
                target = self.router.choose(logical, candidates, now)
                shadow = target.route(logical, now)
                self.cluster_counters.requests_rerouted += 1
                self._trace_lifecycle(
                    trace_events.CLUSTER_REROUTE,
                    {
                        "logical": logical.request_id,
                        "replica": target.replica_id,
                        "shadow": shadow.request_id,
                        "from": replica.replica_id,
                    },
                    request_id=logical.request_id,
                )
            else:
                self._reject(logical, "no_replicas", counter="requests_lost")

    # -- reporting -----------------------------------------------------------

    def fault_counters(self):
        """Engine-level fault counters aggregated across all replicas."""
        return aggregate_fault_counters(self.replicas)

    def stats(self) -> ClusterStats:
        return ClusterStats(self)

    def energy_joules(self) -> float:
        """Integrated joules summed over every replica's engine — active
        kernel energy plus idle power over sim time (0.0 when no replica
        carries an energy model, so loadgen extras stay absent)."""
        return sum(replica.server.energy_joules() for replica in self.replicas)

    def tasks_submitted(self) -> int:
        return sum(r.server.tasks_submitted() for r in self.replicas)

    def mean_batch_size(self) -> float:
        """Fleet cells over fleet tasks, so a task weighs the same whichever
        replica ran it."""
        cells = tasks = 0
        for replica in self.replicas:
            for batch, count in replica.manager.scheduler.batch_size_counts.items():
                cells += batch * count
                tasks += count
        return cells / tasks if tasks else 0.0

    def __repr__(self) -> str:
        states = ", ".join(f"r{r.replica_id}:{r.state}" for r in self.replicas)
        return f"<ClusterServer {self.name!r} [{states}]>"


def build_cluster(
    spec: ClusterSpec,
    loop: Optional[EventLoop] = None,
    replica_failures: Sequence = (),
    **replica_runtime: Any,
) -> ClusterServer:
    """Construct the cluster a :class:`ClusterSpec` describes (the cluster
    analogue of :func:`repro.registry.build_server`)."""
    return ClusterServer(spec, loop=loop, replica_failures=replica_failures, **replica_runtime)
