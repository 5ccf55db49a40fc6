"""Self-time span ledger and the per-layer wrapper tables.

The benchmark measures layers from outside: it wraps the program's entry
points, keeps a stack of open spans, and charges each layer its *self
time* — a span's duration minus the part its wrapped children cover.
Only totals per layer are kept (self nanoseconds, calls); a run opens a
few hundred thousand spans and storing each would cost more than the
layers being measured.

Wrappers go on classes and modules, before the server is built: the
manager hands bound methods to the scheduler, the workers and the
deferred kick at construction.  The concrete model, policy and router
classes are only known once the server exists; their methods are looked
up on every call, so ``install_for_server`` can wrap them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

# layer -> [(module, class or None for a module attribute, attribute)]
ENTRY_POINTS: Dict[str, List[Tuple[str, Any, str]]] = {
    "workload.plan": [("repro.workload.loadgen", "LoadGenerator", "plan")],
    # The name request_processor imported, not the definition in subgraph.
    "subgraph.partition": [
        ("repro.core.request_processor", None, "partition_into_subgraphs")
    ],
    "request_processor.add": [
        ("repro.core.request_processor", "RequestProcessor", "add_request")
    ],
    "request_processor.complete": [
        ("repro.core.request_processor", "RequestProcessor", "handle_task_completion")
    ],
    "scheduler.add": [("repro.core.scheduler", "Scheduler", "add_subgraph")],
    "scheduler.schedule": [("repro.core.scheduler", "Scheduler", "schedule")],
    "scheduler.task_completed": [("repro.core.scheduler", "Scheduler", "task_completed")],
    "manager": [
        ("repro.core.manager", "Manager", "submit_request"),
        ("repro.core.manager", "Manager", "_submit_task"),
        ("repro.core.manager", "Manager", "_task_complete"),
        ("repro.core.manager", "Manager", "_poke_idle_workers"),
    ],
    "worker_gpu": [
        ("repro.core.worker", "Worker", "submit"),
        ("repro.core.worker", "Worker", "_complete"),
    ],
    "events.loop": [("repro.sim.events", "EventLoop", "run")],
    "metrics.summary": [
        ("repro.metrics.latency", "LatencyStats", "extend"),
        ("repro.metrics.latency", "LatencyStats", "p"),
    ],
    "cluster.frontdoor": [("repro.cluster.cluster", "ClusterServer", "_accept")],
    "cluster.route": [("repro.cluster.replica", "Replica", "route")],
    "cluster.reconcile": [("repro.cluster.cluster", "ClusterServer", "_reconcile")],
    "serve.http": [("repro.serve.frontend", "ServeApp", "_route")],
    "serve.submit": [("repro.serve.frontend", "ServeApp", "submit_payload")],
    "serve.sync": [("repro.serve.frontend", "ServeApp", "sync")],
    "serve.store": [
        ("repro.serve.store", "RequestStore", "create"),
        ("repro.serve.store", "RequestStore", "transition"),
    ],
    "serve.bridge": [
        ("repro.serve.bridge", "LiveEventLoop", "pump_now"),
        ("repro.serve.bridge", "LiveEventLoop", "_pump"),
    ],
}

LAYERS: Tuple[str, ...] = (
    "workload.plan",
    "models.unfold",
    "subgraph.partition",
    "request_processor.add",
    "request_processor.complete",
    "scheduler.add",
    "scheduler.schedule",
    "scheduler.task_completed",
    "policies.select",
    "policies.form",
    "manager",
    "worker_gpu",
    "events.loop",
    "metrics.summary",
    "cluster.frontdoor",
    "cluster.route",
    "cluster.reconcile",
    "serve.http",
    "serve.submit",
    "serve.sync",
    "serve.store",
    "serve.bridge",
)


def engines(server: Any) -> List[Any]:
    """The engines behind a server: a cluster's replicas, or the server."""
    replicas = getattr(server, "replicas", None)
    return [r.server for r in replicas] if replicas is not None else [server]


class Ledger:
    """Per-layer self time and call counts, fed by wrapped callables."""

    def __init__(
        self, layers: Iterable[str] = LAYERS, clock: Callable[[], int] = time.perf_counter_ns
    ):
        self.clock = clock  # nanoseconds; tests substitute a scripted one
        self.self_ns: Dict[str, int] = {layer: 0 for layer in layers}
        self.calls: Dict[str, int] = {layer: 0 for layer in layers}
        # Entry points the program no longer has (renamed or removed since
        # this table was written): reported, never fatal.
        self.missing: List[str] = []
        self._stack: List[List[int]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``; exceptions pass through."""
        self.self_ns.setdefault(layer, 0)
        self.calls.setdefault(layer, 0)
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0]  # nanoseconds covered by wrapped callees
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - children[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        span.span_layer = layer
        return span

    def wrap_attr(self, layer: str, owner: Any, name: str) -> None:
        """Replace ``owner.name`` with its span wrapper (once)."""
        fn = getattr(owner, name, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        elif not hasattr(fn, "span_layer"):
            setattr(owner, name, self.wrap(layer, fn))

    def install(self) -> None:
        """Wrap every entry point in ``ENTRY_POINTS``."""
        for layer, targets in ENTRY_POINTS.items():
            for module_name, class_name, attr in targets:
                try:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}.{class_name}.{attr}")
                    continue
                self.wrap_attr(layer, owner, attr)

    def install_for_server(self, server: Any) -> None:
        """Wrap what depends on the built server's concrete classes: the
        model's ``unfold`` (and ``extend`` where a subclass overrides the
        base no-op — a span around a no-op would cost more than the call),
        the policy bundle's ``select`` / ``form``, the cluster's router."""
        from repro.models.base import Model

        for engine in engines(server):
            model_cls = type(engine.model)
            self.wrap_attr("models.unfold", model_cls, "unfold")
            if model_cls.extend is not Model.extend:
                self.wrap_attr("models.unfold", model_cls, "extend")
            self.wrap_attr("policies.select", type(engine.policies.priority), "select")
            self.wrap_attr("policies.form", type(engine.policies.formation), "form")
        router = getattr(server, "router", None)
        if router is not None:
            self.wrap_attr("cluster.route", type(router), "choose")

    def report(self) -> Dict[str, Any]:
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "missing": list(self.missing),
        }
