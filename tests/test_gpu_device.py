"""Tests for the simulated GPU device: one FIFO stream, one signal per task,
a clock (``free_at``) and a busy total."""

import pytest

from repro.gpu.device import DeviceLostError, GPUDevice
from repro.sim.events import EventLoop


@pytest.fixture
def loop():
    return EventLoop()


@pytest.fixture
def device(loop):
    return GPUDevice(loop, device_id=0)


def retiring(device, seen=None):
    """A signal handler that retires the device's oldest work, as a worker
    does, and logs the retire time."""
    def on_complete():
        now = device.loop.now()
        device.retire(now)
        if seen is not None:
            seen.append(now)
    return on_complete


class TestKernel:
    def test_negative_duration_raises(self, loop, device):
        with pytest.raises(ValueError):
            device.run_for(-1.0, retiring(device))
        assert device.free_at == 0.0 and device.busy_time(loop.now()) == 0.0
        assert loop.pending() == 0

    def test_signal_kernel_is_zero_cost(self, loop, device):
        """The completion signal takes no device time: it fires at the
        compute kernel's retire time and the next task starts right there."""
        seen = []
        assert device.run_for(1.0, retiring(device, seen)).time == 1.0
        assert device.run_for(0.0, retiring(device, seen)).time == 1.0
        loop.run()
        assert seen == [1.0, 1.0]
        assert device.busy_time(loop.now()) == 1.0


class TestFIFOExecution:
    def test_single_kernel_retires_after_duration(self, loop, device):
        done = []
        device.run_for(2.0, retiring(device, done))
        loop.run()
        assert done == [2.0]

    def test_kernels_run_back_to_back(self, loop, device):
        done = []
        device.run_for(1.0, lambda: done.append(("a", loop.now())))
        device.run_for(2.0, lambda: done.append(("b", loop.now())))
        loop.run()
        assert done == [("a", 1.0), ("b", 3.0)]

    def test_fifo_order_is_submission_order(self, loop, device):
        done = []
        for i in range(5):
            device.run_for(0.5, lambda i=i: done.append(i))
        loop.run()
        assert done == [0, 1, 2, 3, 4]

    def test_submission_after_idle_starts_at_now(self, loop, device):
        done = []
        device.run_for(1.0, retiring(device))
        loop.call_at(5.0, lambda: device.run_for(1.0, retiring(device, done)))
        loop.run()
        assert done == [6.0]
        assert device.busy_time(loop.now()) == 2.0  # the idle gap is not busy

    def test_signal_is_delivered_at_retire_time_not_at_submission(self, loop, device):
        seen = []
        loop.call_at(0.5, lambda: device.run_for(2.0, retiring(device, seen)))
        loop.run(until=2.0)
        assert seen == [] and device.free_at > loop.now()
        assert device.busy_time(loop.now()) == 1.5  # the elapsed part only
        loop.run()
        assert seen == [2.5]


class TestDeviceLoss:
    def test_fail_clips_busy_time_and_refuses_work(self, loop, device):
        """Death clips the busy total at the death instant, whatever was
        queued; cancelling the signals is their owner's part (the worker's,
        ``tests/test_worker_manager.py``)."""
        seen = []
        device.run_for(1.0, retiring(device, seen))
        device.run_for(2.0, retiring(device, seen))
        device.run_for(2.0, retiring(device, seen))
        loop.run(until=1.5)
        assert seen == [1.0]
        device.fail()  # b was running, c queued: neither retires
        assert device.busy_time(loop.now()) == 1.5
        assert device.free_at == 1.5
        device.fail()  # idempotent
        assert device.busy_time(5.0) == 1.5  # nothing accrues after death
        with pytest.raises(DeviceLostError):
            device.run_for(1.0, retiring(device))


class TestDeviceIntrospection:
    def test_free_at_tracks_backlog(self, loop, device):
        assert device.run_for(3.0, retiring(device)).time == 3.0
        assert device.run_for(1.0, retiring(device)).time == 4.0  # starts where the backlog ends
        assert device.free_at == 4.0
        assert device.free_at > loop.now()

    def test_idle_after_drain(self, loop, device):
        device.run_for(1.0, retiring(device))
        loop.run()
        assert device.free_at == loop.now() == 1.0


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
        device.run_for(1.0, retiring(device))
        device.run_for(2.0, retiring(device))
        loop.run()
        assert device.busy_time(loop.now()) == pytest.approx(3.0)

    def test_busy_time_window(self, loop, device):
        """``busy_time(now)`` is the busy part of ``[0, now]``: the idle gap
        is not counted and the work in progress only up to ``now``."""
        device.run_for(2.0, retiring(device))
        loop.call_at(5.0, lambda: device.run_for(1.0, retiring(device)))
        loop.run(until=5.5)
        assert device.busy_time(loop.now()) == pytest.approx(2.5)

    def test_busy_time_sums_end_minus_start_per_reservation(self, loop, device):
        """The total is the interval list's float: ``end - start`` per
        reservation in stream order — neither the span of the back-to-back
        run nor the sum of the durations."""
        durations = (0.3, 0.7, 1.1)

        def reserve():
            for duration in durations:
                device.run_for(duration, retiring(device))

        loop.call_at(0.3, reserve)
        loop.run()
        expected, start = 0.0, 0.3
        for duration in durations:
            end = start + duration
            expected += end - start
            start = end
        assert device.busy_time(loop.now()) == expected
        assert expected != end - 0.3 and expected != sum(durations)

    def test_unretired_work_counts_up_to_its_end(self, loop, device):
        """A signal a wall clock has not delivered yet: the work still
        ended by ``free_at``, and work queued after the gap starts at now."""
        device.run_for(1.0, lambda: None)  # its owner never retires it
        loop.run()
        assert device.busy_time(3.0) == 1.0
        loop.call_at(3.0, lambda: device.run_for(1.0, retiring(device)))
        loop.run()
        assert device.busy_time(loop.now()) == 2.0
