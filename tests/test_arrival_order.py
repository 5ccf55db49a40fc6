"""A server arms one arrival at a time, and every arrival still fires where
it did when each was its own loop event (DESIGN.md §39).

``InferenceServer.submit`` reserves the arrival's tie-break number from the
loop and keeps the request in the server's own heap; only the earliest is
armed on the loop, under its reserved ``(time, seq)`` key.  Each case below
runs the same submits twice — once as ``src/`` schedules them, once through
``tests/oracles/eager_arrivals.py``, which pushes every arrival onto the
loop at submit as the engine used to — on a loop that logs the key of every
event it fires, and demands the same log and the same outcome fingerprint.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster.cluster import build_cluster
from repro.core import BatchMakerServer, BatchingConfig
from repro.experiments.fig5_timeline import REQUESTS, _unit_cost_model
from repro.models import LSTMChainModel
from repro.registry import build_server, presets
from repro.serve.bridge import LiveEventLoop
from repro.sim.events import EventLoop
from repro.workload import LoadGenerator, SequenceDataset
from tests.chaos_helpers import chaos_seeds, outcome_fingerprint
from tests.oracles.eager_arrivals import schedule_every_arrival


class LoggingLoop(EventLoop):
    """An event loop that logs the ``(time, seq)`` key of every event it
    fires, and the largest heap it held."""

    def __init__(self):
        super().__init__()
        self.fired = []
        self.peak_heap = 0
        self.peak_excess = 0  # heap entries beyond the workers' in-flight tasks
        self.workers = ()

    def call_at(self, when, callback, seq=None):
        def fire():
            self.fired.append((event.time, event.seq))
            callback()

        event = super().call_at(when, fire, seq)
        size = len(self._heap)
        self.peak_heap = max(self.peak_heap, size)
        inflight = sum(w.outstanding for w in self.workers)
        self.peak_excess = max(self.peak_excess, size - inflight)
        return event


def chain_server(loop, **config):
    return BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(config.pop("max_batch", 8), **config),
        loop=loop,
    )


def unit_cost_server(loop):
    """The Fig. 5 setup: every batched step takes exactly one second."""
    return BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
        cost_model=_unit_cost_model(),
        loop=loop,
    )


def both_ways(build, drive):
    """Run ``drive(server)`` on a fresh server as ``src/`` schedules
    arrivals and again through the oracle; returns both logging loops,
    after checking that they fired the same events and that the two runs
    came out the same."""
    runs = []
    for eager in (False, True):
        loop = LoggingLoop()
        server = build(loop)
        if eager:
            schedule_every_arrival(server)
        drive(server)
        runs.append((loop, server))
    (armed, armed_server), (eager, eager_server) = runs
    assert armed.fired == eager.fired
    assert outcome_fingerprint(armed_server) == outcome_fingerprint(eager_server)
    return armed, eager


def test_equal_time_arrivals_fire_in_submit_order():
    def drive(server):
        for index in range(60):
            server.submit(1 + index % 7, arrival_time=1e-3 * (index // 20))
        server.drain()

    armed, _ = both_ways(chain_server, drive)
    assert len(armed.fired) > 60


def test_arrivals_tied_with_engine_events_on_the_unit_cost_setup():
    """Unit-cost cells finish on whole seconds: arrivals on whole seconds
    tie with task completions and must keep their place among them."""
    arrivals = [(length, when) for _, length, when in REQUESTS]
    arrivals += [(2, 1.0), (3, 2.0), (1, 2.0), (4, 3.0), (2, 5.0), (1, 12.0)]

    def drive(server):
        for length, when in arrivals:
            server.submit(length, arrival_time=when)
        server.drain()

    armed, _ = both_ways(unit_cost_server, drive)
    times = [when for when, _ in armed.fired]
    ties = {when for _, when in arrivals if float(when).is_integer()}
    assert sum(1 for t in times if t in ties) > len(ties), "no arrival tied with an engine event"


@pytest.mark.parametrize("seed", chaos_seeds())
def test_out_of_order_submits(seed):
    rng = random.Random(seed)
    plan = [(rng.randint(1, 40), rng.choice([0.0, 1e-4, 2e-4]) + rng.random() * 5e-3)
            for _ in range(200)]
    rng.shuffle(plan)

    def drive(server):
        for length, when in plan:
            server.submit(length, arrival_time=when)
        server.drain()

    both_ways(lambda loop: chain_server(loop, max_batch=16), drive)


def test_a_mid_run_submit_before_the_armed_arrival_takes_the_arming():
    def drive(server):
        for index in range(10):
            server.submit(5, arrival_time=1.0 + 0.01 * index)
        server.drain(until=0.5)
        assert not server.finished
        server.submit(3, arrival_time=0.7)  # before the armed 1.0
        server.submit(4, arrival_time=1.0)  # ties the next: fires after it
        # And from inside a callback, while the loop runs.
        server.loop.call_at(0.8, lambda: server.submit(6, arrival_time=0.9))
        server.drain()

    armed, _ = both_ways(chain_server, drive)
    times = [when for when, _ in armed.fired]
    assert times[0] == 0.7 and 0.9 in times


def test_drain_until_stops_between_two_arrivals_and_resumes():
    pending = []

    def drive(server):
        first = server.submit(2, arrival_time=1.0)
        second = server.submit(2, arrival_time=2.0)
        server.drain(until=1.5)
        assert server.loop.now() == 1.5
        assert first.start_time is not None and second.start_time is None
        pending.append(server.loop.pending())
        server.drain()
        assert second.finish_time is not None

    both_ways(chain_server, drive)
    # The second arrival is the loop's only live event between the two.
    assert pending == [1, 1]


def test_a_cluster_front_door_arms_one_arrival():
    generator = LoadGenerator(
        rate=100000.0, num_requests=400, seed=3, arrivals="bursty",
        arrival_params={"burst_factor": 2.0, "mean_dwell": 0.002},
    )
    spec = presets.lstm_cluster_spec(num_replicas=4, router="shortest_queue")

    def drive(server):
        generator.run(server, SequenceDataset(seed=4))

    armed, eager = both_ways(lambda loop: build_cluster(spec, loop=loop), drive)
    assert eager.peak_heap >= 400 > 50 > armed.peak_heap


def test_a_live_submit_arms_the_asyncio_timer():
    """Under a wall clock the armed arrival goes through the live loop's
    ``call_at``, which (re)arms asyncio; an earlier submit pulls the timer
    forward, and the requests arrive in ``(time, seq)`` order."""

    async def go(eager):
        live = LiveEventLoop()
        live.attach()
        server = chain_server(live)
        if eager:
            schedule_every_arrival(server)
        order = []
        accept = server._accept
        server._accept = lambda request: (order.append(request.request_id), accept(request))
        start = live.now()
        server.submit(3, arrival_time=start + 0.2)
        timers = [live._timer_at]
        server.submit(2, arrival_time=start + 0.1)
        timers.append(live._timer_at)
        server.submit(1, arrival_time=start + 0.1)
        server.submit(4, arrival_time=start + 0.3)
        timers.append(live._timer_at)
        while len(server.finished) < 4:
            await asyncio.sleep(0.01)
        live.detach()
        return [t - start for t in timers], order, live.pending()

    for eager in (False, True):
        timers, order, pending = asyncio.run(go(eager))
        assert timers == pytest.approx([0.2, 0.1, 0.1], abs=1e-9)
        assert order == [1, 2, 0, 3] and pending == 0


def test_the_loop_heap_stays_servers_plus_in_flight_tasks():
    """A 2000-request ``lstm_chain`` run: the loop holds the one armed
    arrival, the tasks in flight and a coalesced kick — not every request
    still to arrive, as it did when each arrival was an event."""
    for eager in (False, True):
        loop = LoggingLoop()
        server = build_server(presets.lstm_batchmaker_spec(), loop=loop)
        if eager:
            schedule_every_arrival(server)
        loop.workers = server.manager.workers
        LoadGenerator(rate=5000.0, num_requests=2000, seed=42).run(
            server, SequenceDataset(seed=43)
        )
        if eager:
            assert loop.peak_heap >= 2000
        else:
            assert loop.peak_excess <= 3, loop.peak_excess
            assert loop.peak_heap <= 3 + len(server.manager.workers) * 8
