"""Event-loop bridge: run_due semantics, wall-clock guards, drift
accounting, and the asyncio timer mapping."""

import asyncio
import time

import pytest

from repro.serve.bridge import LiveEventLoop
from repro.sim.clock import RealTimeClock, VirtualClock
from repro.sim.events import EventLoop


# -- run_due on the base loop ---------------------------------------------


def test_run_due_virtual_fires_only_due_events():
    loop = EventLoop(VirtualClock())
    fired = []
    loop.call_at(0.0, lambda: fired.append("now"))
    loop.call_at(5.0, lambda: fired.append("later"))
    assert loop.run_due() == 1
    assert fired == ["now"]
    loop.clock.advance_to(5.0)
    assert loop.run_due() == 1
    assert fired == ["now", "later"]
    assert loop.run_due() == 0


def test_virtual_past_scheduling_still_raises():
    loop = EventLoop(VirtualClock())
    loop.clock.advance_to(10.0)
    with pytest.raises(ValueError):
        loop.call_at(5.0, lambda: None)


def test_wall_clock_past_scheduling_clamps_to_now():
    loop = EventLoop(RealTimeClock())
    fired = []
    loop.call_at(loop.now() - 5.0, lambda: fired.append(1))
    assert loop.run_due() == 1
    assert fired == [1]


def test_wall_clock_reserved_seq_keeps_its_passed_time():
    """An arrival armed under a reserved number keeps its own time once it
    has passed, so it fires where its submit put it — ahead of an event
    scheduled later, whose past time is clamped to now."""
    loop = EventLoop(RealTimeClock())
    fired = []
    seq = loop.reserve_seq()
    past = loop.now() - 5.0
    loop.call_at(loop.now() - 1.0, lambda: fired.append("clamped"))
    event = loop.call_at(past, lambda: fired.append("reserved"), seq)
    assert event.time == past
    assert loop.run_due() == 2
    assert fired == ["reserved", "clamped"]


def test_step_and_run_refuse_wall_clock():
    loop = EventLoop(RealTimeClock())
    loop.call_at(loop.now() + 60.0, lambda: None)
    with pytest.raises(RuntimeError):
        loop.run(max_events=1)  # one step
    with pytest.raises(RuntimeError):
        loop.run()
    # ... so a wall-clock loop can never fire future events early.


def test_run_due_does_not_fire_future_events_under_wall_clock():
    loop = EventLoop(RealTimeClock())
    fired = []
    loop.call_at(loop.now() + 60.0, lambda: fired.append(1))
    assert loop.run_due() == 0
    assert fired == []
    assert loop.pending() == 1


@pytest.mark.timing
def test_drift_guard_counts_late_fires():
    loop = EventLoop(RealTimeClock())
    loop.call_at(loop.now(), lambda: None)
    time.sleep(0.01)  # the event is now ~10 ms overdue
    assert loop.run_due() == 1
    assert loop.late_fires == 1
    assert loop.max_drift >= 0.005


def test_run_due_max_events_bounds_the_pump():
    loop = EventLoop(VirtualClock())
    fired = []
    for index in range(5):
        loop.call_at(0.0, lambda i=index: fired.append(i))
    assert loop.run_due(max_events=2) == 2
    assert fired == [0, 1]
    assert loop.run_due() == 3


# -- LiveEventLoop over asyncio -------------------------------------------


def test_live_loop_requires_wall_clock():
    with pytest.raises(ValueError):
        LiveEventLoop(VirtualClock())


def test_live_loop_pump_now_without_attach():
    """The inline pump path works unattached (bench drives it directly)."""
    live = LiveEventLoop()
    fired = []
    live.call_at(live.now(), lambda: fired.append(1))
    assert live.pump_now() == 1
    assert fired == [1]
    assert live.pumps == 1
    assert live.events_fired == 1


@pytest.mark.timing
def test_live_loop_fires_via_asyncio_timer():
    async def go():
        live = LiveEventLoop()
        live.attach()
        fired = []
        live.call_at(live.now() + 0.02, lambda: fired.append(live.now()))
        live.call_at(live.now() + 0.04, lambda: fired.append(live.now()))
        await asyncio.sleep(0.1)
        live.detach()
        return live, fired

    live, fired = asyncio.run(go())
    assert len(fired) == 2
    assert fired[0] <= fired[1]
    assert live.pumps >= 1
    assert live.events_fired == 2
    assert live.pending() == 0


@pytest.mark.timing
def test_live_loop_rearms_for_earlier_deadline():
    """Scheduling an earlier event after a later one must pull the timer
    forward — the earlier callback cannot wait behind the later one."""

    async def go():
        live = LiveEventLoop()
        live.attach()
        fired = []
        live.call_at(live.now() + 0.2, lambda: fired.append("late"))
        live.call_at(live.now() + 0.01, lambda: fired.append("early"))
        await asyncio.sleep(0.06)
        result = list(fired)
        live.detach()
        return result

    assert asyncio.run(go()) == ["early"]


def test_detach_cancels_pending_timer():
    async def go():
        live = LiveEventLoop()
        live.attach()
        fired = []
        live.call_at(live.now() + 0.01, lambda: fired.append(1))
        live.detach()
        await asyncio.sleep(0.05)
        return live, fired

    live, fired = asyncio.run(go())
    assert fired == []
    assert live.pending() == 1  # still queued, just no timer to pump it


def test_drift_stats_shape():
    live = LiveEventLoop()
    stats = live.drift_stats()
    assert set(stats) == {
        "pumps",
        "events_fired",
        "late_fires",
        "max_drift_ms",
        "drift_tolerance_ms",
        "pending",
    }
    assert stats["drift_tolerance_ms"] == pytest.approx(1.0)
