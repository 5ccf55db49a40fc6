"""Tests for the deterministic event loop."""

import pytest

from repro.sim.events import EventLoop
from tests.oracles.reference_values import recount_pending


class TestScheduling:
    def test_call_at_runs_at_the_right_time(self):
        loop = EventLoop()
        seen = []
        loop.call_at(2.0, lambda: seen.append(loop.now()))
        loop.run()
        assert seen == [2.0]

    def test_call_after_is_relative(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: loop.call_after(0.5, lambda: seen.append(loop.now())))
        loop.run()
        assert seen == [1.5]

    def test_call_soon_runs_at_current_time(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: loop.call_soon(lambda: seen.append(loop.now())))
        loop.run()
        assert seen == [1.0]

    def test_scheduling_in_the_past_raises(self):
        loop = EventLoop()
        loop.call_at(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError, match="past"):
            loop.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventLoop().call_after(-1.0, lambda: None)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(3.0, lambda: seen.append(3))
        loop.call_at(1.0, lambda: seen.append(1))
        loop.call_at(2.0, lambda: seen.append(2))
        loop.run()
        assert seen == [1, 2, 3]

    def test_same_time_events_fire_in_scheduling_order(self):
        loop = EventLoop()
        seen = []
        for i in range(10):
            loop.call_at(1.0, lambda i=i: seen.append(i))
        loop.run()
        assert seen == list(range(10))

    def test_nested_same_time_events_run_after_earlier_ones(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: (seen.append("a"), loop.call_soon(lambda: seen.append("c"))))
        loop.call_at(1.0, lambda: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "c"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        seen = []
        event = loop.call_at(1.0, lambda: seen.append("x"))
        event.cancel()
        loop.run()
        assert seen == []

    def test_pending_ignores_cancelled(self):
        loop = EventLoop()
        keep = loop.call_at(1.0, lambda: None)
        drop = loop.call_at(2.0, lambda: None)
        drop.cancel()
        assert loop.pending() == 1

    def test_peek_time_skips_cancelled(self):
        loop = EventLoop()
        first = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        first.cancel()
        assert loop.peek_time() == 2.0

    def test_cancel_then_pending_counter_stays_consistent(self):
        """pending() is a maintained counter, not a heap scan: it must stay
        exact through every push/pop/cancel interleaving."""
        loop = EventLoop()
        events = [loop.call_at(float(i), lambda: None) for i in range(5)]
        assert loop.pending() == 5
        events[1].cancel()
        events[3].cancel()
        assert loop.pending() == 3
        # Double-cancel must not double-decrement.
        events[1].cancel()
        assert loop.pending() == 3
        # peek_time discards cancelled heads without touching the count.
        events[0].cancel()
        assert loop.peek_time() == 2.0
        assert loop.pending() == 2
        loop.step()  # runs t=2.0
        assert loop.pending() == 1
        # Cancelling an event that already ran is a no-op for the counter.
        events[2].cancel()
        assert loop.pending() == 1
        loop.run()
        assert loop.pending() == 0

    def test_cancel_after_run_does_not_underflow_pending(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        loop.run()
        assert loop.pending() == 0
        event.cancel()
        assert loop.pending() == 0


class TestRun:
    def test_run_returns_number_of_events(self):
        loop = EventLoop()
        for i in range(5):
            loop.call_at(float(i), lambda: None)
        assert loop.run() == 5

    def test_run_until_stops_before_later_events(self):
        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append(1))
        loop.call_at(5.0, lambda: seen.append(5))
        loop.run(until=3.0)
        assert seen == [1]
        assert loop.now() == 3.0
        assert loop.pending() == 1

    def test_run_until_advances_clock_even_with_no_events(self):
        loop = EventLoop()
        loop.run(until=7.0)
        assert loop.now() == 7.0

    def test_run_max_events(self):
        loop = EventLoop()
        seen = []
        for i in range(5):
            loop.call_at(float(i), lambda i=i: seen.append(i))
        loop.run(max_events=2)
        assert seen == [0, 1]

    def test_step_on_empty_queue_returns_false(self):
        assert EventLoop().step() is False

    def test_reentrant_run_raises(self):
        loop = EventLoop()
        def reenter():
            loop.run()
        loop.call_at(1.0, reenter)
        with pytest.raises(RuntimeError, match="already running"):
            loop.run()

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 4:
                loop.call_after(1.0, lambda: chain(n + 1))

        loop.call_at(0.0, lambda: chain(0))
        loop.run()
        assert seen == [0, 1, 2, 3, 4]
        assert loop.now() == 4.0


class TestCancelDuringDrain:
    """Regression tests for cancel/fire interleavings while the loop drains.

    The fault-injection layer cancels events aggressively (timeout handles
    on request completion, in-flight completions on device loss), often from
    callbacks running inside ``run()`` at the same virtual time as the event
    being cancelled.  ``pending()`` must stay exact through all of it.
    """

    def test_cancel_already_fired_event_during_drain_is_a_noop(self):
        loop = EventLoop()
        first = loop.call_at(1.0, lambda: None)
        # Fires after `first` at the same time and cancels it retroactively.
        loop.call_at(1.0, lambda: first.cancel())
        tail = loop.call_at(2.0, lambda: None)
        loop.run(until=1.0)
        # `first` fired, then was "cancelled": only `tail` is pending.
        assert first.fired and not first.cancelled
        assert loop.pending() == 1 == recount_pending(loop)
        loop.run()
        assert loop.pending() == 0 == recount_pending(loop)

    def test_cancel_of_fired_event_reports_no_effect(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        loop.run()
        assert event.fired
        assert event.cancel() is False
        assert loop.pending() == 0 == recount_pending(loop)

    def test_cancel_of_pending_event_reports_effect_exactly_once(self):
        loop = EventLoop()
        event = loop.call_at(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False  # second cancel: no-op
        assert loop.pending() == 0 == recount_pending(loop)

    def test_callback_cancelling_its_own_event_does_not_double_decrement(self):
        loop = EventLoop()
        handle = []

        def self_cancel():
            # A timeout handler naively cancelling its own handle.
            assert handle[0].cancel() is False

        handle.append(loop.call_at(1.0, self_cancel))
        loop.call_at(2.0, lambda: None)
        loop.run()
        assert loop.pending() == 0 == recount_pending(loop)

    def test_mutual_cancellation_at_same_timestamp(self):
        """Two same-time events each try to cancel the other: exactly one
        callback runs, exactly one cancel takes effect."""
        loop = EventLoop()
        ran = []
        events = {}

        def make(name, other):
            def cb():
                ran.append(name)
                events[other].cancel()
            return cb

        events["a"] = loop.call_at(1.0, make("a", "b"))
        events["b"] = loop.call_at(1.0, make("b", "a"))
        loop.run()
        assert ran == ["a"]
        assert events["b"].cancelled and not events["b"].fired
        assert loop.pending() == 0 == recount_pending(loop)

    def test_cancel_during_drain_storm_keeps_counter_exact(self):
        """Property-style sweep: a driver event at each tick cancels an
        arbitrary mix of fired, pending and already-cancelled events; the
        O(1) counter must match a brute-force heap recount throughout."""
        loop = EventLoop()
        targets = [loop.call_at(float(t), lambda: None) for t in range(0, 20, 2)]

        def chaos(i):
            # Cancel one fired, one pending and one arbitrary target.
            for j in (i - 1, i + 1, (i * 7) % len(targets)):
                if 0 <= j < len(targets):
                    targets[j].cancel()
            assert loop.pending() == recount_pending(loop)

        for i in range(len(targets)):
            loop.call_at(float(2 * i) + 0.5, lambda i=i: chaos(i))
        loop.run()
        assert loop.pending() == 0 == recount_pending(loop)

    def test_peek_time_after_head_cancel_during_drain(self):
        loop = EventLoop()
        seen = []
        second = loop.call_at(2.0, lambda: seen.append(2))
        third = loop.call_at(3.0, lambda: seen.append(3))
        loop.call_at(1.0, lambda: second.cancel())
        loop.run(until=1.0)
        assert loop.peek_time() == 3.0
        assert loop.pending() == 1 == recount_pending(loop)
        loop.run()
        assert seen == [3]
