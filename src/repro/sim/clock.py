"""Clock abstractions for the serving stack.

All timestamps in this project are floats measured in **seconds**.  The
simulation never mixes units: cost models internally reason in microseconds
but always return seconds.
"""

from __future__ import annotations

import time


class Clock:
    """Interface for time sources used by the serving stack."""

    def now(self) -> float:
        """Return the current time in seconds."""
        raise NotImplementedError

    def is_virtual(self) -> bool:
        """Whether this clock is advanced by the event loop (vs wall time)."""
        raise NotImplementedError


class VirtualClock(Clock):
    """A clock advanced explicitly by the event loop.

    Time only moves when :meth:`advance_to` is called, which the event loop
    does as it pops events.  Attempting to move time backwards is an error:
    it would indicate a scheduling bug (an event created in the past).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def is_virtual(self) -> bool:
        return True

    def advance_to(self, t: float) -> None:
        if t < self._now:
            raise ValueError(
                f"virtual clock cannot move backwards: {t} < {self._now}"
            )
        self._now = t


class RealTimeClock(Clock):
    """Wall-clock time, rebased so that construction time is t=0.

    The time source behind live serving (:mod:`repro.serve`): the same
    event-loop machinery that drives a :class:`VirtualClock` through
    simulated time runs over this clock in real time — events fire when
    the wall clock reaches them instead of the loop jumping to them.
    """

    def __init__(self):
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def is_virtual(self) -> bool:
        return False


# Historical name (pre-repro.serve); RealTimeClock is the ROADMAP name.
RealClock = RealTimeClock
