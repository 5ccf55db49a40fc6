"""Chaos invariants: randomized fault schedules over fixed-seed workloads.

Each test drives a full workload under some fault mix and asserts the
global invariants in ``chaos_helpers.assert_invariants``: every request
terminates exactly once, nothing leaks (events, subgraphs, ready counters,
in-flight tasks), counters reconcile, and deadline-met means deadline-met.

CI fans these out over several seeds via the CHAOS_SEEDS env var.
"""

import pytest

from tests.chaos_helpers import (
    assert_invariants,
    build_server,
    chaos_seeds,
    run_chaos,
)
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.workload import PoissonArrivals, SequenceDataset

SEEDS = chaos_seeds()


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_no_faults_healthy_run(seed):
    server = build_server()
    submitted = run_chaos(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert len(server.finished) == len(submitted)
    assert not server.timed_out and not server.rejected


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_failures_with_retries(seed):
    plan = FaultPlan(seed=seed, kernel_failure_rate=0.05)
    server = build_server(fault_plan=plan)
    submitted = run_chaos(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.kernel_failures_injected > 0
    assert counters.retries_attempted > 0


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_heavy_kernel_failures_exhaust_retries(seed):
    plan = FaultPlan(seed=seed, kernel_failure_rate=0.6)
    sla = SLAConfig(retry=RetryPolicy(max_retries=1))
    server = build_server(fault_plan=plan, sla=sla)
    submitted = run_chaos(server, num_requests=150, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert server.timed_out, "60% kernel failure with 1 retry must cancel some"
    assert all(r.cancel_reason == "retries_exhausted" for r in server.timed_out)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_stragglers_only(seed):
    plan = FaultPlan(seed=seed, straggler_rate=0.2, straggler_multiplier=8.0)
    server = build_server(fault_plan=plan)
    submitted = run_chaos(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.stragglers_injected > 0
    assert counters.tasks_failed == 0, "stragglers are slow, not failed"
    assert len(server.finished) == len(submitted)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_deadlines_under_stragglers(seed):
    plan = FaultPlan(seed=seed, straggler_rate=0.3, straggler_multiplier=16.0)
    sla = SLAConfig(default_deadline=4e-3)
    server = build_server(fault_plan=plan, sla=sla)
    submitted = run_chaos(server, rate=6000.0, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert server.timed_out, "16x stragglers against a 4ms deadline must kill some"
    for request in server.timed_out:
        assert request.cancel_reason == "deadline"
        assert request.terminal_time == pytest.approx(request.deadline)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_device_loss_with_survivor(seed):
    plan = FaultPlan(seed=seed, device_failures=[DeviceFailure(5e-3, 0)])
    server = build_server(fault_plan=plan, num_gpus=2)
    submitted = run_chaos(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.device_failures == 1
    assert not server.manager.workers[0].alive
    assert server.manager.workers[1].alive
    assert len(server.finished) == len(submitted), (
        "with a survivor, device loss alone must not lose requests"
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_device_loss_drops_the_victims_eligibility_bucket(seed):
    """Subgraphs queued on the victim move to the survivor — nothing stays
    eligible on the dead worker alone, which no plan would ever read again
    — and every queue's list of ready subgraphs empties at the drain, so no
    entry keeps a subgraph (request, graph) once queued on the victim in
    memory for the life of the server."""
    dead, survivor = 0, 1
    plan = FaultPlan(seed=seed, device_failures=[DeviceFailure(5e-3, dead)])
    server = build_server(fault_plan=plan, num_gpus=2)
    scheduler = server.manager.scheduler
    repin_queued = scheduler.repin_queued
    moved = []

    def checked_repin(dead_worker_id, replacement):
        assert (dead_worker_id, replacement) == (dead, survivor)
        stranded = [
            (queue, sg)
            for queue in scheduler.queues
            for sg in queue.subgraphs.values()
            if sg.pinned == dead
        ]
        count = repin_queued(dead_worker_id, replacement)
        assert count == len(stranded)
        for queue in scheduler.queues:
            assert all(sg.pinned != dead for sg in queue.subgraphs.values()), (
                "a subgraph stayed queued on the victim"
            )
            planned = {sg for sg, _ in queue.plan(survivor, len(queue.subgraphs) + 1)}
            for owner, sg in stranded:
                if owner is queue:
                    assert sg.pinned == survivor
                    assert (sg in planned) == (sg.ready_count > 0)
        moved.extend(sg for _, sg in stranded if sg.ready_count > 0)
        return count

    scheduler.repin_queued = checked_repin
    submitted = run_chaos(server, rate=6000.0, arrival_seed=seed)
    assert moved, "no subgraph with ready nodes was queued on the victim"
    assert_invariants(server, submitted)
    assert len(server.finished) == len(submitted)
    for queue in scheduler.queues:
        assert not queue.subgraphs and not queue._entries, "the list outlived the drain"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_total_device_loss_cancels_everything(seed):
    plan = FaultPlan(
        seed=seed,
        device_failures=[DeviceFailure(3e-3, 0), DeviceFailure(6e-3, 1)],
    )
    server = build_server(fault_plan=plan, num_gpus=2)
    submitted = run_chaos(server, rate=2000.0, num_requests=200, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert not any(w.alive for w in server.manager.workers)
    # In-flight requests are cancelled ("no_devices"); arrivals after the
    # last device died are rejected at admission with the same reason.
    assert server.timed_out, "in-flight requests must be cancelled, not hung"
    assert server.rejected, "post-loss arrivals must be rejected, not hung"
    assert all(r.cancel_reason == "no_devices" for r in server.rejected)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_everything_at_once(seed):
    """The full storm: kernel failures, stragglers, a device loss, tight
    deadlines and load shedding, all in one run."""
    plan = FaultPlan(
        seed=seed,
        kernel_failure_rate=0.05,
        straggler_rate=0.1,
        straggler_multiplier=6.0,
        device_failures=[DeviceFailure(8e-3, 1)],
    )
    sla = SLAConfig(
        default_deadline=30e-3,
        max_queue_delay=20e-3,
        retry=RetryPolicy(max_retries=2),
    )
    server = build_server(fault_plan=plan, sla=sla, num_gpus=2)
    submitted = run_chaos(server, rate=8000.0, num_requests=400, arrival_seed=seed)
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.device_failures == 1
    assert counters.kernel_failures_injected > 0
    assert len(server.finished) > 0, "the system must keep making progress"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_path_off_same_invariants(seed):
    """The brute-force reference scheduler upholds the same invariants
    under the same storm (and test_faults_determinism holds the two
    bit-identical)."""
    plan = FaultPlan(seed=seed, kernel_failure_rate=0.1, straggler_rate=0.1)
    sla = SLAConfig(default_deadline=50e-3, retry=RetryPolicy(max_retries=2))
    server = build_server(fault_plan=plan, sla=sla, reference=True)
    submitted = run_chaos(server, num_requests=200, arrival_seed=seed)
    assert_invariants(server, submitted)


@pytest.mark.chaos
def test_load_shedding_rejects_at_admission():
    sla = SLAConfig(max_queue_delay=1e-3)
    server = build_server(sla=sla, max_batch=8)
    submitted = run_chaos(server, rate=50000.0, num_requests=400)
    assert_invariants(server, submitted)
    assert server.rejected, "50k req/s against an 8-batch server must shed"
    for request in server.rejected:
        assert request.cancel_reason == "load_shed"
        assert request.start_time is None, "shed requests never execute"
        assert request.terminal_time == request.arrival_time


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_in_flight_count_follows_the_nodes_through_retries_and_device_loss(
    seed, monkeypatch
):
    """A subgraph's in-flight count is derived — ``uncompleted -
    unsubmitted`` — and carries its pin.  After every event of a run with
    kernel-fault retries and a device loss, each live subgraph's count
    must equal a brute-force count of its nodes in the live workers'
    in-flight tasks plus the failed tasks waiting out their backoff, and a
    non-sticky subgraph is pinned exactly when that count is non-zero."""
    from collections import Counter

    from repro.core.manager import Manager

    waiting = set()  # failed tasks between their failure and their retry
    task_failed, run_retry = Manager._task_failed, Manager._run_retry

    def failed(manager, worker, task, reason):
        task_failed(manager, worker, task, reason)
        if task.worker_id is None:  # prepare_retry ran: a retry is scheduled
            waiting.add(task)

    def retry(manager, task):
        waiting.discard(task)
        run_retry(manager, task)

    monkeypatch.setattr(Manager, "_task_failed", failed)
    monkeypatch.setattr(Manager, "_run_retry", retry)
    plan = FaultPlan(
        seed=seed,
        kernel_failure_rate=0.08,
        device_failures=[DeviceFailure(5e-3, 0)],
    )
    server = build_server(fault_plan=plan, num_gpus=2)
    manager = server.manager

    def assert_in_flight():
        in_flight = Counter()
        tasks = [task for worker in manager.workers if worker.alive for task in worker._inflight]
        for task in tasks + list(waiting):
            for sg, _ in task.entries:
                in_flight[sg] += 1
        for request in manager.processor.live_requests():
            for sg in request.subgraphs.values():
                assert sg.inflight == in_flight[sg], (sg, in_flight[sg])
                if not sg.sticky:
                    assert (sg.pinned is not None) == (in_flight[sg] > 0), sg
        return sum(in_flight.values())

    dataset = SequenceDataset(seed=1)
    arrivals = PoissonArrivals(3000.0, seed=seed).times(150)
    submitted = [server.submit(dataset.sample_one(), arrival_time=t) for t in arrivals]
    events = with_nodes_in_flight = 0
    while server.loop.run(max_events=1):
        events += 1
        with_nodes_in_flight += assert_in_flight() > 0
    assert events > 500 and with_nodes_in_flight > 100
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.device_failures == 1 and counters.retries_attempted > 0
