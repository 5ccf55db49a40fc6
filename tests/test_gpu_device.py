"""Tests for the simulated GPU device: one FIFO stream, one signal per task."""

import pytest

from repro.gpu.device import DeviceLostError, DeviceTimeline, GPUDevice
from repro.sim.events import EventLoop


@pytest.fixture
def loop():
    return EventLoop()


@pytest.fixture
def device(loop):
    return GPUDevice(loop, device_id=0)


class TestKernel:
    def test_negative_duration_raises(self, device):
        with pytest.raises(ValueError):
            device.run_for(-1.0)
        assert device.backlog() == 0.0 and device.timeline.intervals == []

    def test_signal_kernel_is_zero_cost(self, loop, device):
        """The completion signal takes no device time: it fires at the
        compute kernel's retire time and the next task starts right there."""
        seen = []
        assert device.run_for(1.0, on_complete=lambda: seen.append(loop.now())) == 1.0
        assert device.run_for(0.0, on_complete=lambda: seen.append(loop.now())) == 1.0
        loop.run()
        assert seen == [1.0, 1.0]
        assert device.timeline.intervals == [(0.0, 1.0, None)]


class TestFIFOExecution:
    def test_single_kernel_retires_after_duration(self, loop, device):
        done = []
        device.run_for(2.0, on_complete=lambda: done.append(loop.now()))
        loop.run()
        assert done == [2.0]

    def test_kernels_run_back_to_back(self, loop, device):
        done = []
        device.run_for(1.0, on_complete=lambda: done.append(("a", loop.now())))
        device.run_for(2.0, on_complete=lambda: done.append(("b", loop.now())))
        loop.run()
        assert done == [("a", 1.0), ("b", 3.0)]

    def test_fifo_order_is_submission_order(self, loop, device):
        done = []
        for i in range(5):
            device.run_for(0.5, on_complete=lambda i=i: done.append(i))
        loop.run()
        assert done == [0, 1, 2, 3, 4]

    def test_submission_after_idle_starts_at_now(self, loop, device):
        done = []
        device.run_for(1.0, on_complete=lambda: None)
        loop.call_at(5.0, lambda: device.run_for(1.0, on_complete=lambda: done.append(loop.now())))
        loop.run()
        assert done == [6.0]

    def test_signal_is_delivered_at_retire_time_not_at_submission(self, loop, device):
        seen = []
        loop.call_at(0.5, lambda: device.run_for(2.0, on_complete=lambda: seen.append(loop.now())))
        loop.run(until=2.0)
        assert seen == [] and device.backlog() > 0.0
        loop.run()
        assert seen == [2.5]


class TestDeviceLoss:
    def test_fail_cancels_undelivered_signals_and_clips_the_timeline(self, loop, device):
        seen = []
        device.run_for(1.0, on_complete=lambda: seen.append("a"), tag="a")
        device.run_for(2.0, on_complete=lambda: seen.append("b"), tag="b")
        device.run_for(2.0, on_complete=lambda: seen.append("c"), tag="c")
        loop.run(until=1.5)
        assert seen == ["a"]
        assert device.fail() == 2  # b was running, c queued: neither retires
        assert device.fail() == 0  # idempotent
        loop.run()
        assert seen == ["a"]
        assert device.timeline.intervals == [(0.0, 1.0, "a"), (1.0, 1.5, "b")]
        assert device.backlog() == 0.0
        with pytest.raises(DeviceLostError):
            device.run_for(1.0)


class TestDeviceIntrospection:
    def test_free_at_tracks_backlog(self, loop, device):
        assert device.run_for(3.0) == 3.0
        assert device.run_for(1.0) == 4.0  # starts where the backlog ends
        assert device.backlog() == 4.0
        assert device.backlog() > 0.0

    def test_idle_after_drain(self, loop, device):
        device.run_for(1.0, on_complete=lambda: None)
        loop.run()
        assert device.backlog() == 0.0


class TestCopyCost:
    def test_zero_bytes_is_free(self, device):
        assert device.copy_cost(0) == 0.0

    def test_cost_has_latency_floor(self, device):
        assert device.copy_cost(1) >= device.COPY_LATENCY

    def test_cost_scales_with_size(self, device):
        small = device.copy_cost(10_000)
        large = device.copy_cost(10_000_000)
        assert large > small

    def test_negative_bytes_raise(self, device):
        with pytest.raises(ValueError):
            device.copy_cost(-1)


class TestTimeline:
    def test_busy_time_accumulates(self, loop, device):
        device.run_for(1.0)
        device.run_for(2.0)
        loop.run()
        assert device.timeline.busy_time() == pytest.approx(3.0)

    def test_busy_time_window(self):
        timeline = DeviceTimeline()
        timeline.record(0.0, 2.0, None)
        timeline.record(5.0, 6.0, None)
        assert timeline.busy_time(since=1.0, until=5.5) == pytest.approx(1.5)

    def test_utilization(self):
        timeline = DeviceTimeline()
        timeline.record(0.0, 1.0, None)
        assert timeline.utilization(0.0, 4.0) == pytest.approx(0.25)

    def test_utilization_empty_window_raises(self):
        with pytest.raises(ValueError):
            DeviceTimeline().utilization(1.0, 1.0)
