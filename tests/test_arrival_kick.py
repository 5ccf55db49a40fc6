"""An arrival kicks the scheduler only when some worker can take work
(DESIGN.md §40).

``Manager.submit_request`` (and ``reenter_request``) arm the coalesced
dispatch kick only while some alive worker has nothing in flight; a busy
worker is scheduled again by its own completion's poke.  Each case below
serves the same traffic twice — once as ``src/`` kicks, once through
``tests/oracles/always_kick.py``, which kicks on every arrival as the
engine used to — and demands equal outcome fingerprints, every float
compared by ``float.hex``.  The loop must fire exactly one event fewer per
arrival that found every worker busy with no kick already pending (the
kick it would have armed), and nothing else may change.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_cluster
from repro.core import BatchMakerServer, BatchingConfig
from repro.experiments.fig5_timeline import REQUESTS, _unit_cost_model
from repro.faults import FaultPlan, RetryPolicy, SLAConfig
from repro.models import LSTMChainModel
from repro.registry import build_server, presets
from repro.server import DeferredKick
from repro.sim.events import EventLoop
from repro.workload import SequenceDataset
from tests import golden
from tests.chaos_helpers import chaos_seeds, outcome_fingerprint, run_chaos
from tests.oracles.always_kick import engines, kick_on_every_arrival


class CountingLoop(EventLoop):
    """An event loop that counts the events it fires."""

    def __init__(self):
        super().__init__()
        self.fired = 0

    def run(self, until=None, max_events=None):
        executed = super().run(until, max_events)
        self.fired += executed
        return executed


class ShadowKick(DeferredKick):
    """A manager's dispatch kick that also counts the kicks an arrival
    skips.  An arrival that found every alive worker busy (``skip``) is
    one kick the always-kicking engine armed and this one does not —
    unless that engine had a kick pending already: the real one, or one
    it armed for an earlier skipped arrival at this same time
    (``shadow_at``), which a later kick here stands in for."""

    def __init__(self, manager):
        super().__init__(manager.loop, manager._poke_idle_workers)
        self.shadow_at = None
        self.skipped = 0

    def kick(self) -> None:
        if not self._pending and self.shadow_at == self.loop.now():
            self.skipped -= 1  # the always-kicking engine coalesced it
        self.shadow_at = None
        super().kick()

    def skip(self) -> None:
        now = self.loop.now()
        if not self._pending and self.shadow_at != now:
            self.skipped += 1
            self.shadow_at = now


def count_skipped_kicks(server) -> list:
    """Give every engine of ``server`` a :class:`ShadowKick` and route its
    arrivals that find every alive worker busy to ``skip``; returns the
    shadows."""
    shadows = []
    for manager in engines(server):
        shadow = manager._poke = ShadowKick(manager)

        def kick_if_idle(manager=manager, shadow=shadow, arm=manager._kick_if_idle):
            if all(w._inflight for w in manager.workers if w.alive):
                shadow.skip()
            arm()

        manager._kick_if_idle = kick_if_idle
        shadows.append(shadow)
    return shadows


def hexed(value):
    """``value`` with every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(hexed(item) for item in value)
    return value


def both_ways(build, drive) -> int:
    """Serve ``drive(server)`` on a fresh ``build(loop)`` as ``src/`` kicks
    and again through the oracle; check equal fingerprints and that the
    loop fired one event fewer per skipped kick.  Returns the skipped
    kicks."""
    loop = CountingLoop()
    server = build(loop)
    shadows = count_skipped_kicks(server)
    drive(server)
    skipped = sum(shadow.skipped for shadow in shadows)

    oracle_loop = CountingLoop()
    oracle = kick_on_every_arrival(build(oracle_loop))
    drive(oracle)

    assert hexed(outcome_fingerprint(server)) == hexed(outcome_fingerprint(oracle))
    assert oracle_loop.fired - loop.fired == skipped, (
        f"{oracle_loop.fired} events always kicking, {loop.fired} now, "
        f"but {skipped} kicks skipped"
    )
    return skipped


def serve(rate, requests, dataset="sequence", seed=42, deadline=None):
    def drive(server):
        run_chaos(
            server,
            rate=rate,
            num_requests=requests,
            arrival_seed=seed,
            deadline=deadline,
            dataset=golden.DATASETS[dataset](seed + 1),
        )

    return drive


def test_fig5_unit_cost_ties():
    """Unit-cost cells finish on whole seconds: arrivals on whole seconds
    tie with task completions, and a skipped kick must not move a batch."""
    arrivals = [(length, when) for _, length, when in REQUESTS]
    arrivals += [(2, 1.0), (3, 2.0), (1, 2.0), (4, 3.0), (2, 5.0), (1, 12.0)]

    def build(loop):
        return BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
            cost_model=_unit_cost_model(),
            loop=loop,
        )

    def drive(server):
        for length, when in arrivals:
            server.submit(length, arrival_time=when)
        server.drain()

    assert both_ways(build, drive) > 0


@pytest.mark.parametrize("placement", ["pinned", "unpinned"])
@pytest.mark.parametrize("gpus", [2, 3, 4])
def test_multi_gpu(gpus, placement):
    spec = golden._policies(presets.lstm_batchmaker_spec(16, gpus), placement=placement)
    skipped = both_ways(
        lambda loop: build_server(spec, loop=loop), serve(3000.0 * gpus, 300)
    )
    assert skipped > 0


def test_lazy_kick():
    spec = golden._policies(presets.lstm_batchmaker_spec(64, 2), formation="lazy_kick")
    spec = spec.replace(sla=golden.LAZY_SLA.to_dict())
    holds = []

    def drive(server):
        serve(12000.0, 300)(server)
        holds.append(server.policies.formation.holds)

    assert both_ways(lambda loop: build_server(spec, loop=loop), drive) > 0
    assert holds[0] > 0, "the lazy kick never held a batch"


def test_memory_aware_formation_with_preemption():
    """Dynamic decode on a 24-state budget: memory-aware formation defers
    and preempts, and a preempted request re-enters through
    ``reenter_request``."""
    spec = golden._memory_spec()
    restarts = []

    def drive(server):
        serve(400.0, 120, dataset="seq2seq_dynamic")(server)
        restarts.append(sum(r.restarts for r in server.terminal_requests()))

    assert both_ways(lambda loop: build_server(spec, loop=loop), drive) > 0
    assert restarts[0] > 0, "no request was preempted"


@pytest.mark.parametrize("seed", chaos_seeds())
def test_device_loss_and_deadlines(seed):
    """Kernel failures, stragglers and a device lost mid-run, under SLA
    deadlines with retries and load shedding by projected queue delay."""
    sla = SLAConfig(
        default_deadline=10e-3, max_queue_delay=1e-3, retry=RetryPolicy(max_retries=2)
    )
    spec = presets.lstm_batchmaker_spec(64, 2).replace(sla=sla.to_dict())

    def build(loop):
        plan = FaultPlan(seed=seed, device_failures=[(20e-3, 1)], **golden.STORM)
        return build_server(spec, loop=loop, fault_plan=plan)

    outcomes = []

    def drive(server):
        serve(6000.0, 300, seed=seed)(server)
        outcomes.append(server.fault_counters())

    assert both_ways(build, drive) > 0
    counters = outcomes[0]
    assert counters.device_failures == 1
    assert counters.tasks_failed > 0
    assert counters.requests_timed_out > 0
    assert counters.requests_rejected > 0


@pytest.mark.parametrize("router", ["shortest_queue", "predicted_delay"])
def test_cluster_with_a_replica_loss(router):
    spec = presets.lstm_cluster_spec(3, router, max_batch=64, seed=42)

    def build(loop):
        return build_cluster(spec, loop=loop, replica_failures=[(20e-3, 1)])

    rerouted = []

    def drive(server):
        serve(12000.0, 400)(server)
        rerouted.append(server.cluster_counters.requests_rerouted)

    assert both_ways(build, drive) > 0
    assert rerouted[0] > 0, "the lost replica held no live request"


def test_an_idle_server_still_kicks_every_arrival():
    """Sparse traffic finds the worker idle every time: nothing is skipped
    and every arrival is served as before."""
    spec = presets.lstm_batchmaker_spec(64, 1)

    def drive(server):
        dataset = SequenceDataset(seed=1)
        for index in range(20):
            server.submit(dataset.sample_one(), arrival_time=index * 1.0)
        server.drain()

    assert both_ways(lambda loop: build_server(spec, loop=loop), drive) == 0
