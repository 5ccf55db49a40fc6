"""Chaos suite for dynamic-decode Seq2Seq under a memory budget.

The hardest corner of the memory stack: feed-previous decoding grows the
graph one subgraph per emitted token, so residency moves on every decode
step — while evictions restart partially-grown requests, devices die with
half-grown graphs resident, and kernel failures retry mid-growth.  Every
run must satisfy the full chaos invariants (``assert_invariants``), and
every device's byte accounting must telescope to zero at drain.
"""

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.models import Seq2SeqModel
from repro.policies import bundle_from_names
from repro.registry.presets import seq2seq_memory_spec
from repro.workload import Seq2SeqDataset
from repro.workload.arrivals import PoissonArrivals

from .chaos_helpers import assert_invariants, chaos_seeds
from .retention_helpers import keep_engine_state

SEEDS = chaos_seeds()


def _server(
    capacity_requests=24,
    num_gpus=2,
    fault_plan=None,
    sla=None,
    memory_aware=True,
):
    config = BatchingConfig.with_max_batch(
        64,
        per_cell_max={"decoder": 32},
        per_cell_priority={"decoder": 1, "encoder": 0},
    )
    server = BatchMakerServer(
        Seq2SeqModel(dynamic=True),
        config=config,
        num_gpus=num_gpus,
        fault_plan=fault_plan,
        sla=sla,
        memory=(
            seq2seq_memory_spec(capacity_requests=capacity_requests)
            if capacity_requests is not None
            else None
        ),
        policies=(
            bundle_from_names(formation="memory_aware")
            if memory_aware
            else None
        ),
    )
    keep_engine_state(server)
    return server


def _run(server, rate=300.0, num_requests=120, arrival_seed=7, deadline=None):
    dataset = Seq2SeqDataset(seed=1, max_length=20, dynamic=True)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(
            server.submit(dataset.sample_one(), arrival_time=when, deadline=deadline)
        )
    server.drain()
    return submitted


def _assert_memory_clean(server):
    """Post-drain byte accounting: telescoped to zero, never overcommitted."""
    for worker in server.manager.workers:
        mem = worker.device.memory
        if mem is None:
            continue
        assert mem.peak_reserved <= mem.capacity, (
            f"device {worker.worker_id} overcommitted"
        )
        if worker.alive:
            assert mem.state_reserved == 0, (
                f"device {worker.worker_id} leaked {mem.state_reserved} B"
            )
            assert mem.live_requests() == 0
        else:
            # A dead device's model was reset wholesale.
            assert mem.reserved == 0
    # No dangling residency markers on any request the server ever saw.
    keep = keep_engine_state(server)
    checked = 0
    for request in server.terminal_requests():
        for sg in keep.subgraphs(request):
            checked += 1
            assert sg.resident_on is None, (
                f"request {request.request_id} still resident after terminal"
            )
    assert checked, "no subgraph was checked"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_dynamic_decode_without_budget(seed):
    """Baseline sanity: the dynamic workload itself drains clean with no
    memory model installed."""
    server = _server(capacity_requests=None, memory_aware=False)
    submitted = _run(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert len(server.finished) == len(submitted)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_eviction_mid_decode(seed):
    """Pressure forces evict-and-restart of partially-grown decodes; every
    restarted request still reaches exactly one terminal state and the
    accounting telescopes."""
    server = _server(capacity_requests=24)
    submitted = _run(server, arrival_seed=seed, num_requests=150)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)
    counters = server.fault_counters()
    assert counters.memory_evictions > 0, (
        "budget never forced an eviction — tighten the test"
    )
    evicted = [r for r in submitted if r.restarts > 0]
    assert evicted, "no request was restarted"
    assert any(r.state.name == "FINISHED" for r in evicted), (
        "every evicted request died — restarts never recovered"
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_device_loss_with_partially_grown_graphs(seed):
    """A device dies mid-run with half-grown decodes resident on it: the
    dead device's model resets, survivors re-place on the other device,
    and no release ever underflows against the reset model."""
    plan = FaultPlan(seed=seed, device_failures=[DeviceFailure(0.05, 1)])
    server = _server(capacity_requests=24, fault_plan=plan)
    submitted = _run(server, arrival_seed=seed, num_requests=150)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)
    dead = server.manager.workers[1]
    assert not dead.alive
    assert dead.device.memory.reserved == 0
    # The surviving device carried real load after the failure.
    assert server.manager.workers[0].device.memory.peak_reserved > 0


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_failures_during_growth(seed):
    """Kernel retries interleave with decode-step growth and evictions."""
    plan = FaultPlan(seed=seed, kernel_failure_rate=0.05)
    server = _server(capacity_requests=24, fault_plan=plan)
    submitted = _run(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)
    assert server.fault_counters().retries_attempted > 0


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_deadlines_under_memory_pressure(seed):
    """Deadline eviction and memory deferral interact: cancelled requests
    release their state, and no finished request broke its deadline (the
    assert_invariants contract)."""
    sla = SLAConfig(default_deadline=60e-3)
    server = _server(capacity_requests=24, sla=sla)
    submitted = _run(server, rate=500.0, arrival_seed=seed, num_requests=150)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_oblivious_baseline_under_device_loss(seed):
    """The paper formation with the budget merely enforced, plus a device
    death: OOM cancellation at kick time and wholesale reset coexist."""
    plan = FaultPlan(seed=seed, device_failures=[DeviceFailure(0.08, 0)])
    server = _server(capacity_requests=24, fault_plan=plan, memory_aware=False)
    submitted = _run(server, arrival_seed=seed, num_requests=150)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_drain_completeness_under_everything(seed):
    """The full stack at once — tight budget, evictions, kernel failures,
    a device death, deadlines — still drains to exactly-once terminal
    states with zero residual reservation."""
    plan = FaultPlan(
        seed=seed,
        kernel_failure_rate=0.03,
        device_failures=[DeviceFailure(0.1, 1)],
    )
    sla = SLAConfig(default_deadline=80e-3, retry=RetryPolicy(max_retries=2))
    server = _server(capacity_requests=24, fault_plan=plan, sla=sla)
    submitted = _run(server, rate=400.0, arrival_seed=seed, num_requests=200)
    assert_invariants(server, submitted)
    _assert_memory_clean(server)
