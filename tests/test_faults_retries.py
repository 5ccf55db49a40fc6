"""Batch-level retry: backoff, exhaustion, placement, and accounting.

Uses ``task_overrides`` to pin faults onto specific executions, so each
scenario exercises exactly the path it names.
"""

import pytest

from tests.chaos_helpers import assert_invariants, build_server, run_chaos
from tests.retention_helpers import keep_engine_state
from repro.core.request import RequestState
from repro.faults import (
    DeviceFailure,
    FaultPlan,
    KERNEL_FAIL,
    RetryPolicy,
    SLAConfig,
    STRAGGLER,
    TaskFault,
)


def _single_request_server(overrides, sla=None, num_gpus=1):
    plan = FaultPlan(task_overrides=overrides)
    server = build_server(fault_plan=plan, sla=sla, num_gpus=num_gpus)
    request = server.submit([1] * 6, arrival_time=0.0)
    server.drain()
    return server, request


def test_single_failure_recovers_via_retry():
    server, request = _single_request_server(
        {(0, 0): TaskFault(KERNEL_FAIL)}
    )
    assert request.state is RequestState.FINISHED
    assert request.retries == 1
    counters = server.fault_counters()
    assert counters.tasks_failed == 1
    assert counters.retries_attempted == 1
    assert_invariants(server, [request])


def test_retry_waits_out_the_backoff():
    """The retry lands no earlier than failure time + backoff(attempt)."""
    retry = RetryPolicy(max_retries=3, backoff_base=5e-3)
    server, request = _single_request_server(
        {(0, 0): TaskFault(KERNEL_FAIL), (0, 1): TaskFault(KERNEL_FAIL)},
        sla=SLAConfig(retry=retry),
    )
    assert request.state is RequestState.FINISHED
    assert request.retries == 2
    # Two backoffs (5ms + 10ms) are a lower bound on the finish time.
    assert request.finish_time > 15e-3


def test_exhausted_retries_cancel_the_request():
    retry = RetryPolicy(max_retries=2)
    overrides = {(0, a): TaskFault(KERNEL_FAIL) for a in range(3)}
    server, request = _single_request_server(
        overrides, sla=SLAConfig(retry=retry)
    )
    assert request.state is RequestState.TIMED_OUT
    assert request.cancel_reason == "retries_exhausted"
    assert request.retries == 2
    assert server.fault_counters().tasks_failed == 3
    assert_invariants(server, [request])


def test_max_retries_zero_fails_fast():
    server, request = _single_request_server(
        {(0, 0): TaskFault(KERNEL_FAIL)},
        sla=SLAConfig(retry=RetryPolicy(max_retries=0)),
    )
    assert request.state is RequestState.TIMED_OUT
    assert request.retries == 0
    assert server.fault_counters().retries_attempted == 0


def test_straggler_slows_but_completes():
    server_slow, slow = _single_request_server(
        {(0, 0): TaskFault(STRAGGLER, slowdown=10.0)}
    )
    server_ref, ref = _single_request_server({})
    assert slow.state is RequestState.FINISHED
    assert ref.state is RequestState.FINISHED
    assert slow.finish_time > ref.finish_time
    assert slow.retries == 0, "a straggler is not a failure"
    assert server_slow.fault_counters().stragglers_injected == 1
    assert server_slow.fault_counters().tasks_failed == 0


def test_retry_prefers_origin_worker():
    server, request = _single_request_server(
        {(0, 0): TaskFault(KERNEL_FAIL)}, num_gpus=2
    )
    assert request.state is RequestState.FINISHED
    workers = server.manager.workers
    # The original worker survived, so the retry stays there: worker 1
    # never executes anything for this single-request workload.
    assert workers[0].tasks_executed > 0
    assert workers[1].tasks_executed == 0


def test_retry_moves_to_survivor_after_device_loss():
    """Kill the origin device mid-backoff: the retry must land on the
    surviving device and the request must still finish."""
    plan = FaultPlan(
        task_overrides={(0, 0): TaskFault(KERNEL_FAIL)},
        device_failures=[DeviceFailure(1e-7, 0)],
    )
    retry = RetryPolicy(max_retries=3, backoff_base=1e-3)
    server = build_server(
        fault_plan=plan, sla=SLAConfig(retry=retry), num_gpus=2
    )
    request = server.submit([1] * 6, arrival_time=0.0)
    server.drain()
    assert request.state is RequestState.FINISHED
    assert not server.manager.workers[0].alive
    assert server.manager.workers[1].tasks_executed > 0
    assert_invariants(server, [request])


def test_retry_pays_one_copy_per_member_it_still_carries(monkeypatch):
    """Device 0 dies under a batch of eight chains; the retry moves to
    device 1, whose memory holds room for two more states.  The other six
    members are OOM-cancelled by the submit hooks and leave the batch
    before it launches, so the retry pays the cross-device copy for the
    two it still carries, not for all eight."""
    from repro.core.batchmaker import BatchMakerServer
    from repro.core.config import BatchingConfig
    from repro.core.worker import Worker
    from repro.gpu.memory import DEFAULT_STATE_BYTES, MemorySpec
    from repro.models import LSTMChainModel
    from repro.policies.base import PlacementPolicy

    submit, retried = Worker.submit, []

    def recording(worker, task, extra_cost=0.0, fault=None):
        submit(worker, task, extra_cost=extra_cost, fault=fault)
        if task.attempt:
            retried.append((task, len(task.plan), task.migration_time))

    monkeypatch.setattr(Worker, "submit", recording)
    server = BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(8),
        num_gpus=2,
        memory=MemorySpec(capacity=10 * DEFAULT_STATE_BYTES),
        fault_plan=FaultPlan(device_failures=[DeviceFailure(1e-4, 0)]),
    )
    requests = [server.submit([1] * 20, arrival_time=0.0) for _ in range(16)]
    server.drain()

    counters = server.fault_counters()
    assert counters.device_failures == 1 and counters.oom_cancellations == 6
    task, survivors, migration_time = retried[0]
    assert task.worker_id == 1 and survivors == 2
    copy = server.manager.workers[1].device.copy_cost(PlacementPolicy.HIDDEN_STATE_BYTES)
    assert migration_time == pytest.approx(copy * survivors)
    # The later retries find the survivors' state already moved.
    assert [cost for _, _, cost in retried[1:]] == [0.0] * (len(retried) - 1)
    assert sum(r.state is RequestState.FINISHED for r in requests) == 10


def test_retries_not_counted_as_scheduler_decisions():
    """tasks_submitted and the batch histogram describe the scheduling
    policy's decisions; a retry replays one, it does not make a new one."""
    server_faulty, _ = _single_request_server({(0, 0): TaskFault(KERNEL_FAIL)})
    server_clean, _ = _single_request_server({})
    assert server_faulty.tasks_submitted() == server_clean.tasks_submitted()
    assert (
        server_faulty.manager.scheduler.batch_size_counts
        == server_clean.manager.scheduler.batch_size_counts
    )


def test_terminal_requests_dropped_from_retried_batch():
    """A request that times out during the backoff is filtered out of the
    retried batch instead of being executed past its terminal state."""
    retry = RetryPolicy(max_retries=3, backoff_base=50e-3)
    plan = FaultPlan(task_overrides={(0, 0): TaskFault(KERNEL_FAIL)})
    server = build_server(fault_plan=plan, sla=SLAConfig(retry=retry))
    # Both requests ride in task 0; the victim's deadline expires during
    # the 50ms backoff, the survivor finishes on the retry.
    victim = server.submit([1] * 6, arrival_time=0.0, deadline=10e-3)
    survivor = server.submit([1] * 6, arrival_time=0.0)
    server.drain()
    assert victim.state is RequestState.TIMED_OUT
    assert victim.cancel_reason == "deadline"
    assert survivor.state is RequestState.FINISHED
    assert_invariants(server, [victim, survivor])


def test_multi_request_batch_failure_retries_all_survivors():
    plan = FaultPlan(task_overrides={(0, 0): TaskFault(KERNEL_FAIL)})
    server = build_server(fault_plan=plan)
    batch = [server.submit([1] * 6, arrival_time=0.0) for _ in range(5)]
    server.drain()
    assert all(r.state is RequestState.FINISHED for r in batch)
    assert all(r.retries == 1 for r in batch)
    assert server.fault_counters().retries_attempted == 1, (
        "one failed task = one retried task, not one per request"
    )
    assert_invariants(server, batch)


def test_pin_inflight_symmetry_across_fail_retry_chain():
    """Every submitted node retires exactly once even through fail+retry:
    after the drain no subgraph holds a node in flight."""
    overrides = {(0, 0): TaskFault(KERNEL_FAIL), (1, 0): TaskFault(KERNEL_FAIL)}
    plan = FaultPlan(task_overrides=overrides)
    server = build_server(fault_plan=plan)
    keep = keep_engine_state(server)
    batch = [server.submit([1] * 8, arrival_time=0.0) for _ in range(3)]
    server.drain()
    assert all(r.state is RequestState.FINISHED for r in batch)
    subgraphs = [sg for request in batch for sg in keep.subgraphs(request)]
    assert len(subgraphs) == len(batch)  # one chain subgraph each
    for sg in subgraphs:
        assert sg.inflight == 0, f"residual inflight on {sg}"
    assert_invariants(server, batch)


def test_retried_step_retires_after_its_optimistic_successor(monkeypatch):
    """Completion lives in the graph's ``done`` bitmap (DESIGN.md §27), so
    a retried task may retire after the step handed out behind it: a kernel
    fault on the task holding chain step 1 lets step 2 — already submitted
    optimistically on the same stream — set its byte first.  The request
    still finishes exactly once with ``remaining_nodes`` conserved, and a
    second completion of either node still raises."""
    from repro.core.request_processor import RequestProcessor
    from repro.core.task import BatchedTask

    k, length = 1, 12
    plan = FaultPlan(task_overrides={(k, 0): TaskFault(KERNEL_FAIL)})
    server = build_server(fault_plan=plan)
    handle = RequestProcessor.handle_task_completion
    snapshots, replayed = [], []

    def recording(processor, task, now):
        finished = handle(processor, task, now)
        ((sg, _),) = task.entries  # a lone chain: one node per task
        request, graph = sg.request, sg.graph
        snapshots.append(bytes(graph.done))
        if not request.terminal:
            assert request.remaining_nodes == len(graph) - sum(graph.done)
            for node_id in (k, k + 1):
                if graph.done[node_id] and (node_id, len(snapshots)) not in replayed:
                    again = BatchedTask(-1, task.cell_type, [(sg, node_id)])
                    with pytest.raises(RuntimeError, match=f"node {node_id} completed twice"):
                        handle(processor, again, now)
                    assert graph.done == bytearray(snapshots[-1])
                    assert request.remaining_nodes == len(graph) - sum(graph.done)
                    replayed.append((node_id, len(snapshots)))
        return finished

    monkeypatch.setattr(RequestProcessor, "handle_task_completion", recording)
    request = server.submit([1] * length, arrival_time=0.0)
    server.drain()

    successor_first = next(i for i, done in enumerate(snapshots) if done[k + 1])
    assert snapshots[successor_first][k] == 0, "step k+1 did not retire before step k"
    assert any(done[k] for done in snapshots[successor_first:])
    assert {node_id for node_id, _ in replayed} == {k, k + 1}
    assert request.state is RequestState.FINISHED and request.retries == 1
    assert server.finished.count(request) == 1 and snapshots[-1] == b"\x01" * length
    counters = server.fault_counters()
    assert (counters.requests_completed, counters.tasks_failed) == (1, 1)
    assert server.stats().nodes_processed == length
    assert_invariants(server, [request])
