"""Discrete-event model of a GPU device.

The device owns one FIFO stream (matching the paper's use of a single
stream per worker with kernels issued in topological order).  Work
reserves device time from now, or from where the queued work ends; its
completion callback — the signal kernel BatchMaker appends to every task so
it learns of completion without blocking the stream (§5, "Asynchronous
Completion Notification") — fires at the retire time through the event
loop.  Cross-device copies are modelled as latency + size/bandwidth, which
the scheduler's pinning exists to avoid.
"""

from __future__ import annotations

from typing import Callable, List

from repro.sim.events import Event, EventLoop


class DeviceLostError(RuntimeError):
    """Work was submitted to (or running on) a device that has died."""


def make_devices(loop: EventLoop, num_gpus: int) -> List["GPUDevice"]:
    """The per-server GPU fleet, ids 0..num_gpus-1; every server kind
    (BatchMaker's manager and the graph-batching baselines) builds it the
    same way."""
    if num_gpus < 1:
        raise ValueError("need at least one GPU")
    return [GPUDevice(loop, device_id=i) for i in range(num_gpus)]


class GPUDevice:
    """A simulated GPU with a single FIFO execution stream.

    The device is a clock and a total: ``free_at`` is when the stream runs
    dry, and ``busy`` the busy seconds of the work retired so far, summed
    ``end - start`` per reservation in stream order.  It keeps no record
    per task: the signal events belong to whoever reserved the time, and
    that owner reports each one through :meth:`retire` as it fires.
    """

    # NVLink-class interconnect: 10 us copy latency, 20 GB/s effective
    # per-direction bandwidth.
    COPY_LATENCY = 10e-6
    COPY_BANDWIDTH = 20e9

    def __init__(self, loop: EventLoop, device_id: int):
        self.loop = loop
        self.device_id = device_id
        self.name = f"gpu{device_id}"
        # When the stream runs dry; the manager's projected queue delay
        # reads it against one clock read for all its devices.
        self.free_at = 0.0
        self.busy = 0.0
        # Where the oldest unretired work started; ``free_at`` once every
        # reservation has retired.
        self._started = 0.0
        self.alive = True
        # Byte accounting (repro.gpu.memory.MemoryModel); None keeps the
        # historical time-only device model.
        self.memory = None
        # Joule accounting (repro.gpu.energy.EnergyModel); None keeps the
        # energy-blind device model.
        self.energy = None

    # -- execution ---------------------------------------------------------

    def run_for(self, duration: float, on_complete: Callable[[], None]) -> Event:
        """Enqueue ``duration`` seconds of work on the stream; returns its
        signal, the event that delivers ``on_complete`` at the retire time.

        Work runs back-to-back in FIFO order after everything already in
        the stream, so its signal fires never earlier than ``now``.
        """
        if duration < 0:
            raise ValueError(f"kernel duration must be >= 0, got {duration}")
        if not self.alive:
            raise DeviceLostError(f"device {self.name} is dead")
        now, start = self.loop.now(), self.free_at
        if now > start:
            # The stream ran dry: the new work starts now.  Every earlier
            # reservation ended by ``free_at``; one whose signal a wall
            # clock has not delivered yet is folded here (0.0 otherwise).
            self.busy += start - self._started
            start = self._started = now
        end = self.free_at = start + duration
        return self.loop.call_at(end, on_complete)

    def retire(self, end: float) -> None:
        """The oldest unretired work's signal fired at ``end``: add its
        ``end - start`` to the busy total."""
        started = self._started
        if end > started:
            self.busy += end - started
            self._started = end

    def busy_time(self, now: float) -> float:
        """Busy seconds up to ``now``: the retired total plus the elapsed
        part of the work in progress."""
        started, free_at = self._started, self.free_at
        if now > started and free_at > started:
            return self.busy + ((now if now < free_at else free_at) - started)
        return self.busy

    def fail(self) -> None:
        """Kill the device: queued work is discarded and the busy total is
        clipped at the death time.  The owner of the in-flight signals
        cancels them (:meth:`repro.core.worker.Worker.fail_device`).
        Idempotent."""
        if not self.alive:
            return
        self.alive = False
        now = self.loop.now()
        self.busy = self.busy_time(now)
        self.free_at = self._started = now
        if self.memory is not None:
            self.memory.reset()
        if self.energy is not None:
            self.energy.reset(now)

    # -- transfers ---------------------------------------------------------

    def copy_cost(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` to/from a peer device."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.COPY_LATENCY + nbytes / self.COPY_BANDWIDTH

    def __repr__(self) -> str:
        return f"<GPUDevice {self.name} free_at={self.free_at:.6f}>"
