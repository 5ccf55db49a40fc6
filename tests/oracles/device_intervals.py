"""The per-reservation interval list, kept as the oracle for the device's
busy total.

Until DESIGN.md §42 every ``GPUDevice`` kept a ``DeviceTimeline``: one
``(start, end, tag)`` tuple per reservation of the run, clipped at the
death instant, summed on read.  The device now keeps one running total.
:class:`IntervalLog` keeps the old list beside a live device — it wraps
the device's ``run_for`` and ``fail`` — and computes the old sum, so a
test can hold :meth:`GPUDevice.busy_time` to it: exactly after a drain and
at a death, within 1e-12 s at an arbitrary instant mid-flight.
"""

from typing import List, Optional, Tuple

# Mid-flight the device folds the work in progress into one subtraction;
# the list summed it per reservation.
MID_FLIGHT_TOLERANCE = 1e-12


class IntervalLog:
    """The ``(start, end)`` list one device's ``DeviceTimeline`` held."""

    def __init__(self, device):
        self.device = device
        self.intervals: List[Tuple[float, float]] = []
        # (death instant, busy total the device reported, the list's sum)
        self.death: Optional[Tuple[float, float, float]] = None
        run_for, fail = device.run_for, device.fail

        def logged_run_for(duration, on_complete):
            now, start = device.loop.now(), device.free_at
            if now > start:
                start = now
            signal = run_for(duration, on_complete)
            end = start + duration
            if end > start:
                self.intervals.append((start, end))
            return signal

        def logged_fail():
            if device.alive:
                at = device.loop.now()
                fail()
                self.intervals = [(s, min(e, at)) for s, e in self.intervals if s < at]
                self.death = (at, device.busy_time(at), self.busy_time())
            else:
                fail()

        device.run_for, device.fail = logged_run_for, logged_fail

    def busy_time(self, until: Optional[float] = None) -> float:
        """``DeviceTimeline.busy_time(until=until)``: the busy seconds of
        the list, each reservation clipped at ``until``, in order."""
        total = 0.0
        for start, end in self.intervals:
            hi = end if until is None else min(end, until)
            if hi > start:
                total += hi - start
        return total


def install(server) -> List[IntervalLog]:
    """One log per device of an engine, before it runs anything."""
    return [IntervalLog(worker.device) for worker in server.manager.workers]
