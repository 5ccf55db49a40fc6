"""The engine's one extension seam (``repro.extension``, DESIGN.md §22).

Four statements about the seam itself: the core modules import none of
the subsystems that ride it; hooks fire in installation order and the
first reject reason wins; an extension that overrides nothing costs
nothing; and a new device-attached model — here a per-device token
counter — is ~20 lines of test code that touch no file in ``repro.core``
yet telescope to zero under the chaos storm.  Plus the regression tests
for arrivals (and preempted re-entries) after total device loss.
"""

import ast
from pathlib import Path

import pytest

from repro.core import BatchMakerServer
from repro.core.request import InferenceRequest, RequestState
from repro.extension import HOOKS, EngineExtension, bound_hooks
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.gpu.memory import MemorySpec
from repro.models import LSTMChainModel
from repro.registry import build_server as build_from_spec
from repro.registry import presets
from tests.chaos_helpers import assert_invariants, build_server, chaos_seeds, run_chaos

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CORE = ("manager", "scheduler", "worker", "request_processor")
OFF_LIMITS = (
    "repro.trace",
    "repro.gpu.memory",
    "repro.gpu.energy",
    "repro.policies.memory",
    "repro.policies.slo",
)


@pytest.mark.parametrize("module", CORE)
def test_core_modules_import_no_subsystem_that_rides_the_seam(module):
    tree = ast.parse((SRC / "core" / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    offending = sorted(
        name
        for name in imported
        if any(name == banned or name.startswith(banned + ".") for banned in OFF_LIMITS)
    )
    assert not offending, f"repro.core.{module} imports {offending}"


class Recorder(EngineExtension):
    """Overrides every hook; logs ``(tag, hook)`` and rejects on demand."""

    def __init__(self, tag, log, reject=None):
        self.tag, self.log, self.reject = tag, log, reject

    def admit(self, request):
        self.log.append((self.tag, "admit"))
        return self.reject

    def on_task_submit(self, task, worker):
        self.log.append((self.tag, "on_task_submit"))

    def on_task_done(self, task):
        self.log.append((self.tag, "on_task_done"))

    def on_task_failed(self, task, reason, retry_delay):
        self.log.append((self.tag, "on_task_failed"))

    def on_evict(self, request, evicted):
        self.log.append((self.tag, "on_evict"))

    def on_terminal(self, request):
        self.log.append((self.tag, "on_terminal"))

    def on_device_lost(self, worker):
        self.log.append((self.tag, "on_device_lost"))


def test_hooks_of_two_extensions_fire_in_installation_order_at_every_hook_point():
    log = []
    plan = FaultPlan(
        seed=3, kernel_failure_rate=0.2, device_failures=[DeviceFailure(5e-3, 1)]
    )
    sla = SLAConfig(default_deadline=4e-3, retry=RetryPolicy(max_retries=1))
    server = build_server(plan, sla, num_gpus=2)
    for tag in ("first", "second"):
        server.manager.install(Recorder(tag, log))
    submitted = run_chaos(server, num_requests=120)
    assert_invariants(server, submitted)
    assert {hook for _, hook in log} == set(HOOKS), "the run missed a hook point"
    # Every firing is a (first, second) pair, in that order.
    assert len(log) % 2 == 0
    for (tag_a, hook_a), (tag_b, hook_b) in zip(log[::2], log[1::2]):
        assert (tag_a, tag_b) == ("first", "second") and hook_a == hook_b


def test_a_reject_reason_from_the_first_gate_short_circuits_the_rest():
    log = []
    server = BatchMakerServer(LSTMChainModel())
    server.manager.install(Recorder("first", log, reject="first_says_no"))
    server.manager.install(Recorder("second", log, reject="never_asked"))
    request = server.submit(5)
    server.drain()
    assert request.state is RequestState.REJECTED
    assert request.cancel_reason == "first_says_no"
    assert server.rejected == [request]
    assert server.fault_counters().requests_rejected == 1
    assert log == [("first", "admit"), ("first", "on_terminal"), ("second", "on_terminal")]


def test_an_extension_that_overrides_nothing_contributes_no_bound_method():
    idle = EngineExtension()
    assert all(bound_hooks([idle], hook) == () for hook in HOOKS)
    server = BatchMakerServer(LSTMChainModel())
    before = {hook: getattr(server.manager, "_" + hook) for hook in HOOKS}
    server.manager.install(idle)
    assert {hook: getattr(server.manager, "_" + hook) for hook in HOOKS} == before
    # The plain engine: only the server's own terminal-list hook is bound.
    bound = {hook: len(methods) for hook, methods in before.items() if methods}
    assert bound == {"on_terminal": 1}


class DeviceTokens(EngineExtension):
    """A device-attached model in ~20 lines: each request holds one token
    on every device it launched on, returned when it terminates; a dying
    device takes its tokens with it."""

    def attach(self, engine):
        self.held = {worker.worker_id: set() for worker in engine.workers}
        self.charged = 0

    def on_task_submit(self, task, worker):
        for subgraph, _ in task.plan:
            if not subgraph.request.terminal:
                self.held[worker.worker_id].add(subgraph.request.request_id)
                self.charged += 1

    def on_terminal(self, request):
        for tokens in self.held.values():
            tokens.discard(request.request_id)

    def on_device_lost(self, worker):
        self.held[worker.worker_id].clear()


@pytest.mark.chaos
@pytest.mark.parametrize("seed", chaos_seeds())
def test_a_device_attached_model_telescopes_to_zero_under_the_storm(seed):
    plan = FaultPlan(
        seed,
        kernel_failure_rate=0.08,
        straggler_rate=0.1,
        straggler_multiplier=5.0,
        device_failures=[DeviceFailure(10e-3, 1)],
    )
    sla = SLAConfig(default_deadline=40e-3, retry=RetryPolicy(max_retries=2))
    server = build_server(plan, sla, num_gpus=2)
    tokens = DeviceTokens()
    server.manager.install(tokens)
    submitted = run_chaos(server)
    assert_invariants(server, submitted)
    assert tokens.charged > len(submitted), "the model never saw the run"
    assert tokens.held == {0: set(), 1: set()}


# -- arrivals after total device loss --------------------------------------


@pytest.mark.parametrize("sla", [None, SLAConfig(max_queue_delay=1e-3)])
@pytest.mark.parametrize(
    "plan", [None, FaultPlan(device_failures=[DeviceFailure(1e-3, 0)])]
)
def test_arrival_after_total_device_loss_is_rejected_no_devices(plan, sla):
    """With or without a fault plan, with or without an SLA: the dead
    engine rejects, it neither queues the arrival forever nor calls it
    load shedding."""
    server = build_server(plan, sla)
    early = server.submit(5, arrival_time=0.0)
    if plan is None:
        server.loop.call_at(1e-3, server.manager.fail_all_devices)
    late = server.submit(5, arrival_time=5e-3)
    server.drain()
    assert (late.state, late.cancel_reason) == (RequestState.REJECTED, "no_devices")
    assert server.manager.processor.live_request_count() == 0
    assert server.manager.alive_devices == 0
    assert_invariants(server, [early, late])


def test_a_preempted_request_re_entering_a_dead_engine_is_cancelled():
    """Evict-and-restart holds a request outside the engine for a backoff;
    if every device dies meanwhile it must still reach a terminal state."""
    server = build_from_spec(presets.seq2seq_dynamic_spec(64, 32, 2, capacity_requests=24))
    victim = InferenceRequest(0, {"src": 3, "dynamic": True, "max_decode": 4}, 0.0)
    server.manager.submit_request(victim)  # queued; the dispatch kick has not run
    assert server.memory.restart_request(victim)
    server.manager.fail_all_devices()
    server.drain()
    assert (victim.state, victim.cancel_reason) == (RequestState.TIMED_OUT, "no_devices")
    assert server.manager.processor.live_request_count() == 0
    assert_invariants(server, [victim])


def test_memory_spec_without_the_aware_policy_installs_no_admission_gate():
    server = BatchMakerServer(LSTMChainModel(), memory=MemorySpec(capacity=1 << 30))
    assert server.manager._admit == ()
    assert [gate.__name__ for gate in server.manager._gates] == ["_gate_no_devices"]
