"""A minimal deterministic event loop.

Events sit in a binary heap as ``(time, sequence, event)`` triples.  The
sequence number breaks ties so that events scheduled at the same virtual time
fire in scheduling order, which makes every simulation run bit-reproducible
for a given seed; it is unique, so the heap orders the triples by comparing
floats and ints and never reaches the event object.
"""

from __future__ import annotations

import heapq
import logging
from typing import Any, Callable, Optional

from repro.sim.clock import Clock, VirtualClock

logger = logging.getLogger(__name__)

# A timer firing later than this (seconds) after its scheduled time is
# logged by ``run_due`` — the live-serving drift guard (DESIGN.md §16).
DRIFT_TOLERANCE = 1e-3


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`.

    Firing or cancelling drops ``callback``: a handle kept past that point
    (a device's pending-signal list, a disarmed timer still in the heap)
    does not keep what the callback closed over alive."""

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[[], Any]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._loop: Optional["EventLoop"] = None

    def cancel(self) -> bool:
        """Mark the event so the loop skips it when popped.

        Returns True when the cancellation took effect (the callback will
        never run), False when it was a no-op because the event already
        fired or was already cancelled.  The ``fired`` guard makes the
        exactly-once accounting explicit: cancelling an event mid-drain —
        including from a callback running at the same timestamp, or from
        the event's own callback — can never decrement ``pending()`` a
        second time, because only a live-in-heap event (``fired`` False,
        ``_loop`` set) carries a pending count to give back.
        """
        if self.cancelled or self.fired:
            return False
        self.cancelled = True
        self.callback = None
        if self._loop is not None:
            # Still sitting in the heap: it no longer counts as pending.
            self._loop._live -= 1
            self._loop = None
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq}{state}>"


class EventLoop:
    """Drives a :class:`~repro.sim.clock.Clock` through a heap of timed
    callbacks.

    The loop is single-threaded and re-entrant: callbacks may schedule new
    events (including at the current time) and they will run in order.

    Two execution modes, decided by the clock:

    * **Virtual** (the default :class:`VirtualClock`): :meth:`run` /
      :meth:`step` pop events and *advance* the clock to each event's
      time — the deterministic simulation mode every fingerprint suite
      pins down.
    * **Wall** (a non-virtual clock such as
      :class:`~repro.sim.clock.RealTimeClock`): time moves on its own;
      :meth:`run_due` fires exactly the events whose time has arrived and
      an external timer (asyncio in :mod:`repro.serve.bridge`) decides
      *when* to pump.  ``run``/``step`` refuse to run — they would fire
      future events early because a wall clock cannot be advanced.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock: Clock = clock if clock is not None else VirtualClock()
        self._virtual = self.clock.is_virtual()
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        # Count of scheduled, not-yet-run, not-cancelled events; maintained
        # on push/pop/cancel so ``pending()`` is O(1) instead of a heap scan.
        self._live = 0
        # Wall-mode drift guard (see run_due): fires later than
        # ``DRIFT_TOLERANCE`` are logged and counted, so a saturated live
        # server is visible in the metrics instead of silently sloppy.
        self.late_fires = 0
        self.max_drift = 0.0

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``.

        Under a virtual clock a past ``when`` is a scheduling bug and
        raises.  Under a wall clock it is routine — the clock moved while
        the caller computed ``when`` — so the event is clamped to now and
        fires on the next pump.
        """
        if when < self.clock.now():
            if self._virtual:
                raise ValueError(
                    f"cannot schedule event in the past: {when} < {self.clock.now()}"
                )
            when = self.clock.now()
        event = Event(when, self._seq, callback)
        event._loop = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (when, event.seq, event))
        return event

    def call_after(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.clock.now() + delay, callback)

    def call_soon(self, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time
        events that were scheduled earlier)."""
        return self.call_at(self.clock.now(), callback)

    # -- introspection ----------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if not self._virtual:
            raise RuntimeError(
                "step()/run() drive a virtual clock; under a wall clock "
                "use run_due() (see repro.serve.bridge.LiveEventLoop)"
            )
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue  # already discounted from _live at cancel time
            event.fired = True
            event._loop = None
            self._live -= 1
            self.clock.advance_to(event.time)
            callback, event.callback = event.callback, None
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events executed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so that metrics windows line
        up with the requested horizon.
        """
        if not self._virtual:
            raise RuntimeError(
                "step()/run() drive a virtual clock; under a wall clock "
                "use run_due() (see repro.serve.bridge.LiveEventLoop)"
            )
        if self._running:
            raise RuntimeError("event loop is already running")
        self._running = True
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        if until is not None and until > self.clock.now():
            self.clock.advance_to(until)
        return executed

    def run_due(self, max_events: Optional[int] = None) -> int:
        """Fire every event whose scheduled time has arrived (clock-agnostic).

        The wall-clock pump primitive: pops events with ``time <= now``
        without touching the clock, so it works under both clock kinds
        (under a virtual clock it only drains events at exactly the
        current time, i.e. the ``call_soon`` backlog).  Callbacks may
        schedule new events; ones that land due are drained in the same
        call.  Returns the number of events executed.

        Drift guard: an event firing more than ``DRIFT_TOLERANCE``
        seconds after its scheduled time increments ``late_fires``,
        raises ``max_drift`` and logs a warning — on a live server this
        is the signal that the asyncio timer wheel (or the Python work
        between timers) cannot keep up with real time.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            when, _, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                continue
            now = self.clock.now()
            if when > now:
                break
            heapq.heappop(self._heap)
            event.fired = True
            event._loop = None
            self._live -= 1
            drift = now - event.time
            if drift > DRIFT_TOLERANCE:
                self.late_fires += 1
                if drift > self.max_drift:
                    self.max_drift = drift
                logger.warning(
                    "timer fired %.3f ms late (scheduled t=%.6f, now t=%.6f)",
                    1e3 * drift,
                    event.time,
                    now,
                )
            elif drift > self.max_drift:
                self.max_drift = drift
            callback, event.callback = event.callback, None
            callback()
            executed += 1
        return executed
