"""Event-loop bridge: the engine's timer heap pumped by asyncio.

The whole serving stack — Manager, Scheduler, ClusterServer, baselines —
schedules strictly through :class:`~repro.sim.events.EventLoop`
(``call_at`` / ``call_after`` / ``call_soon``).  :class:`LiveEventLoop`
subclasses it over a :class:`~repro.sim.clock.RealTimeClock` and, on
every schedule, (re)arms a single asyncio timer at the heap's earliest
deadline.  When the timer fires, :meth:`~repro.sim.events.EventLoop.run_due`
pops exactly the events whose wall time has arrived — so the engine runs
*unmodified* against real time: same heap, same tie-breaking sequence
numbers, same callbacks, only the "when do they fire" authority changes
from ``clock.advance_to`` to the operating system.

Timebase mapping: ``RealTimeClock.now()`` is ``time.monotonic()`` rebased
to construction; asyncio's ``loop.time()`` is also monotonic, so loop
timestamps convert to asyncio deadlines by one constant offset measured
at attach.

Drift: the base loop's ``run_due`` counts and logs fires later than
``DRIFT_TOLERANCE`` (1 ms); :meth:`LiveEventLoop.drift_stats`
surfaces those counters to the ``/metrics`` endpoint.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.sim.clock import RealTimeClock
from repro.sim.events import DRIFT_TOLERANCE, Event, EventLoop


class LiveEventLoop(EventLoop):
    """An :class:`EventLoop` over wall time, pumped by asyncio timers.

    Create it, ``attach`` it to a running asyncio loop, then hand it to
    any server constructor in place of a simulated loop.  A pump runs the
    due events and re-arms, nothing more: the serve front end learns of
    each outcome from the server that files it (``on_outcome``,
    DESIGN.md §43), not from the loop.
    """

    def __init__(self, clock: Optional[RealTimeClock] = None):
        super().__init__(clock if clock is not None else RealTimeClock())
        if self.clock.is_virtual():
            raise ValueError("LiveEventLoop needs a wall clock (RealTimeClock)")
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._offset = 0.0  # aio.time() - clock.now(), constant once attached
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at: Optional[float] = None  # loop-time deadline of _timer
        self.pumps = 0
        self.events_fired = 0

    # -- asyncio attachment ----------------------------------------------

    def attach(self, aio_loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        """Bind to ``aio_loop`` (default: the running loop) and arm the
        timer for any events scheduled before attachment."""
        self._aio = aio_loop if aio_loop is not None else asyncio.get_running_loop()
        self._offset = self._aio.time() - self.clock.now()
        self._rearm()

    def detach(self) -> None:
        """Cancel the pending timer and drop the asyncio binding (shutdown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_at = None
        self._aio = None

    # -- scheduling: every path funnels through call_at -------------------

    def call_at(
        self, when: float, callback: Callable[[], Any], seq: Optional[int] = None
    ) -> Event:
        event = super().call_at(when, callback, seq)
        # A new earliest deadline must pull the asyncio timer forward;
        # later deadlines leave it alone (the pump re-arms afterwards).
        if self._aio is not None and (
            self._timer_at is None or event.time < self._timer_at
        ):
            self._rearm()
        return event

    def _rearm(self) -> None:
        if self._aio is None:
            return
        next_time = self.peek_time()
        if next_time is None:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._timer_at = None
            return
        if self._timer is not None:
            if self._timer_at is not None and self._timer_at <= next_time:
                return  # already armed at (or before) the earliest event
            self._timer.cancel()
        self._timer_at = next_time
        self._timer = self._aio.call_at(next_time + self._offset, self._pump)

    def _pump(self) -> None:
        """Asyncio timer callback: drain due events, re-arm for the rest."""
        self._timer = None
        self._timer_at = None
        fired = self.run_due()
        self.pumps += 1
        self.events_fired += fired
        self._rearm()

    def pump_now(self) -> int:
        """Synchronous pump (callers inside the asyncio thread, e.g. the
        front end right after a submit, so the arrival event runs before
        the HTTP response is written)."""
        fired = self.run_due()
        if fired:
            self.pumps += 1
            self.events_fired += fired
        self._rearm()
        return fired

    # -- reporting ---------------------------------------------------------

    def drift_stats(self) -> dict:
        return {
            "pumps": self.pumps,
            "events_fired": self.events_fired,
            "late_fires": self.late_fires,
            "max_drift_ms": 1e3 * self.max_drift,
            "drift_tolerance_ms": 1e3 * DRIFT_TOLERANCE,
            "pending": self.pending(),
        }
