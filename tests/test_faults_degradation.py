"""Graceful degradation: device loss re-pinning and SLA load shedding."""

import math

import pytest

from tests.chaos_helpers import assert_invariants, build_server, run_chaos
from tests.retention_helpers import keep_engine_state
from repro.core.request import RequestState
from repro.extension import EngineExtension
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig


class TestDeviceLoss:
    def test_dead_device_stops_accepting(self):
        plan = FaultPlan(device_failures=[DeviceFailure(0.0, 0)])
        server = build_server(fault_plan=plan, num_gpus=2)
        server.drain()
        worker = server.manager.workers[0]
        assert not worker.alive
        from repro.gpu.device import DeviceLostError
        with pytest.raises(DeviceLostError):
            worker.device.run_for(1e-3, on_complete=lambda: None)

    def test_queued_subgraphs_repin_to_survivor(self):
        """Kill device 0 while work pinned to it is still queued: the
        survivor inherits the pins and every request finishes."""
        plan = FaultPlan(device_failures=[DeviceFailure(2e-3, 0)])
        server = build_server(fault_plan=plan, num_gpus=2, max_batch=4)
        keep = keep_engine_state(server)
        submitted = [
            server.submit([1] * 30, arrival_time=i * 1e-5) for i in range(40)
        ]
        server.drain()
        assert_invariants(server, submitted)
        assert len(server.finished) == len(submitted)
        # Nothing may remain pinned to the dead device.
        subgraphs = [sg for request in submitted for sg in keep.subgraphs(request)]
        assert len(subgraphs) == len(submitted)  # one chain subgraph each
        for sg in subgraphs:
            assert sg.pinned != 0

    def test_repin_choice_is_deterministic_first_survivor(self):
        """With 4 devices and device 1 dead, its work moves to device 2
        (first alive id cyclically after the dead one)."""
        plan = FaultPlan(device_failures=[DeviceFailure(0.0, 1)])
        server = build_server(fault_plan=plan, num_gpus=4)
        manager = server.manager
        replacement = manager.policies.placement.replacement_for(1, manager.workers)
        server.drain()
        assert replacement.worker_id == 2

    def test_inflight_tasks_on_dead_device_are_failed_and_retried(self):
        plan = FaultPlan(device_failures=[DeviceFailure(1e-4, 0)])
        server = build_server(fault_plan=plan, num_gpus=2)
        # Arrives at t=0, executes immediately: in flight when gpu0 dies.
        request = server.submit([1] * 20, arrival_time=0.0)
        server.drain()
        assert request.state is RequestState.FINISHED
        counters = server.fault_counters()
        assert counters.device_failures == 1
        assert counters.tasks_failed >= 1
        assert counters.retries_attempted >= 1
        assert_invariants(server, [request])

    def test_device_timeline_truncated_at_death(self):
        plan = FaultPlan(device_failures=[DeviceFailure(1e-4, 0)])
        server = build_server(fault_plan=plan, num_gpus=2)
        server.submit([1] * 20, arrival_time=0.0)
        server.drain()
        dead = server.manager.workers[0].device
        assert dead.busy_time(server.loop.now()) <= 1e-4 + 1e-12, (
            "a dead device cannot have consumed time past its death"
        )

    def test_double_failure_event_is_idempotent(self):
        plan = FaultPlan(
            device_failures=[DeviceFailure(1e-4, 0), DeviceFailure(2e-4, 0)]
        )
        server = build_server(fault_plan=plan, num_gpus=2)
        submitted = [server.submit([1] * 10, arrival_time=0.0)]
        server.drain()
        assert server.fault_counters().device_failures == 1
        assert_invariants(server, submitted)


class TestLoadShedding:
    def test_no_shedding_under_light_load(self):
        sla = SLAConfig(max_queue_delay=1.0)
        server = build_server(sla=sla)
        submitted = run_chaos(server, rate=100.0, num_requests=50)
        assert_invariants(server, submitted)
        assert not server.rejected

    def test_overload_sheds_and_survivors_meet_slo(self):
        """Shedding is the mechanism that keeps admitted requests fast:
        under heavy overload, queueing delay for admitted requests stays
        in the neighbourhood of the configured bound."""
        max_delay = 2e-3
        sla = SLAConfig(max_queue_delay=max_delay)
        server = build_server(sla=sla, max_batch=8)
        submitted = run_chaos(server, rate=100000.0, num_requests=500)
        assert_invariants(server, submitted)
        assert server.rejected, "100k req/s on one 8-batch GPU must shed"
        assert server.finished, "shedding must not starve admitted work"
        # The projection is an estimate, not an oracle: allow headroom, but
        # queueing delays must not be unbounded like the no-shed case.
        worst_queueing = max(r.queuing_time for r in server.finished)
        assert worst_queueing < 20 * max_delay

    def test_shed_requests_never_enter_the_pipeline(self):
        sla = SLAConfig(max_queue_delay=1e-4)
        server = build_server(sla=sla, max_batch=4)
        keep = keep_engine_state(server)
        submitted = run_chaos(server, rate=100000.0, num_requests=300)
        assert_invariants(server, submitted)
        assert server.rejected and server.finished
        assert all(keep.subgraphs(request) for request in server.finished)
        for request in server.rejected:
            assert request.state is RequestState.REJECTED
            # Read at retirement, before the engine drops what it holds.
            assert keep.graph(request) is None, "shed request was unfolded anyway"
            assert not keep.subgraphs(request)
            assert request.start_time is None

    def test_rejection_callback_fires(self):
        class Rejections(EngineExtension):
            def __init__(self):
                self.seen = []

            def on_terminal(self, request):
                if request.state is RequestState.REJECTED:
                    self.seen.append(request)

        sla = SLAConfig(max_queue_delay=1e-4)
        server = build_server(sla=sla, max_batch=4)
        observer = Rejections()
        server.manager.install(observer)
        run_chaos(server, rate=100000.0, num_requests=200)
        assert observer.seen == server.rejected != []

    def test_all_devices_dead_rejects_new_arrivals(self):
        plan = FaultPlan(device_failures=[DeviceFailure(1e-3, 0)])
        server = build_server(fault_plan=plan, num_gpus=1)
        early = server.submit([1] * 5, arrival_time=0.0)
        late = server.submit([1] * 5, arrival_time=5e-3)
        server.drain()
        assert late.state is RequestState.REJECTED
        assert late.cancel_reason == "no_devices"
        assert early.terminal, "nothing may hang after total device loss"
        assert_invariants(server, [early, late])

    def test_projected_queue_delay_tracks_backlog(self):
        server = build_server()
        manager = server.manager
        assert manager.projected_queue_delay(server.loop.now()) == 0.0
        server.submit([1] * 40, arrival_time=0.0)
        # Advance into the run: the device now has a backlog.
        server.drain(until=1e-4)
        assert manager.projected_queue_delay(server.loop.now()) >= 0.0
        server.drain()
        assert manager.projected_queue_delay(server.loop.now()) == 0.0

    def test_projected_queue_delay_is_infinite_with_every_device_dead(self):
        """No alive device: no backlog is finite and the drain term has
        nothing to divide by — the delay reads ``inf``, not a
        ``ZeroDivisionError``."""
        server = build_server(num_gpus=2)
        manager = server.manager
        server.submit([1] * 40, arrival_time=0.0)
        server.drain(until=1e-4)
        manager.fail_all_devices()
        assert manager.alive_devices == 0
        assert manager.projected_queue_delay(server.loop.now()) == math.inf
