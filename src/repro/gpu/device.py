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

from typing import Any, Callable, List, Optional, Tuple

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


class DeviceTimeline:
    """Record of (start, end, tag) intervals for utilization accounting."""

    def __init__(self):
        self.intervals: List[Tuple[float, float, Any]] = []

    def record(self, start: float, end: float, tag: Any) -> None:
        self.intervals.append((start, end, tag))

    def truncate(self, at: float) -> None:
        """Forget device time after ``at`` (the device died then): intervals
        past the cut are dropped, straddling ones are clipped."""
        clipped: List[Tuple[float, float, Any]] = []
        for start, end, tag in self.intervals:
            if start >= at:
                continue
            clipped.append((start, min(end, at), tag))
        self.intervals = clipped

    def busy_time(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Total busy seconds within the window [since, until]."""
        total = 0.0
        for start, end, _ in self.intervals:
            lo = max(start, since)
            hi = end if until is None else min(end, until)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, since: float, until: float) -> float:
        """Fraction of [since, until] the device was busy."""
        if until <= since:
            raise ValueError("empty utilization window")
        return self.busy_time(since, until) / (until - since)


class GPUDevice:
    """A simulated GPU with a single FIFO execution stream."""

    # NVLink-class interconnect: 10 us copy latency, 20 GB/s effective
    # per-direction bandwidth.
    COPY_LATENCY = 10e-6
    COPY_BANDWIDTH = 20e9

    def __init__(self, loop: EventLoop, device_id: int):
        self.loop = loop
        self.device_id = device_id
        self.name = f"gpu{device_id}"
        self.timeline = DeviceTimeline()
        # When the stream runs dry; the manager's projected queue delay
        # reads it against one clock read for all its devices.
        self.free_at = 0.0
        self.alive = True
        # Byte accounting (repro.gpu.memory.MemoryModel); None keeps the
        # historical time-only device model.
        self.memory = None
        # Joule accounting (repro.gpu.energy.EnergyModel); None keeps the
        # energy-blind device model.
        self.energy = None
        # Signal events scheduled for not-yet-retired work; cancelled en
        # masse when the device dies (fired events are pruned lazily).
        self._pending_signals: List[Event] = []

    # -- execution ---------------------------------------------------------

    def run_for(
        self,
        duration: float,
        on_complete: Optional[Callable[[], None]] = None,
        tag: Any = None,
    ) -> float:
        """Enqueue ``duration`` seconds of work on the stream; returns the
        retire time.

        Work runs back-to-back in FIFO order after everything already in
        the stream.  ``on_complete`` is delivered at the retire time via
        the event loop (never earlier than ``now``).
        """
        if duration < 0:
            raise ValueError(f"kernel duration must be >= 0, got {duration}")
        if not self.alive:
            raise DeviceLostError(f"device {self.name} is dead")
        if len(self._pending_signals) > 64:
            self._pending_signals = [
                e for e in self._pending_signals if not (e.fired or e.cancelled)
            ]
        now, start = self.loop.now(), self.free_at
        if now > start:
            start = now
        end = start + duration
        if on_complete is not None:
            self._pending_signals.append(self.loop.call_at(end, on_complete))
        if end > start:
            self.timeline.record(start, end, tag)
        self.free_at = end
        return end

    def fail(self) -> int:
        """Kill the device: every not-yet-delivered signal is cancelled (the
        kernels never retire), queued work is discarded, and utilisation
        accounting is clipped at the death time.  Returns the number of
        signals that were cancelled.  Idempotent."""
        if not self.alive:
            return 0
        self.alive = False
        now = self.loop.now()
        cancelled = sum(1 for event in self._pending_signals if event.cancel())
        self._pending_signals.clear()
        self.timeline.truncate(now)
        self.free_at = now
        if self.memory is not None:
            self.memory.reset()
        if self.energy is not None:
            self.energy.reset(now)
        return cancelled

    # -- transfers ---------------------------------------------------------

    def copy_cost(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` to/from a peer device."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.COPY_LATENCY + nbytes / self.COPY_BANDWIDTH

    # -- introspection -----------------------------------------------------

    def backlog(self) -> float:
        """Seconds of queued work not yet retired."""
        return max(0.0, self.free_at - self.loop.now())

    def __repr__(self) -> str:
        return f"<GPUDevice {self.name} free_at={self.free_at:.6f}>"
