"""Differential conformance suite for energy accounting and DVFS (§17).

Same contract shape as ``tests/test_memory_policies.py``:

1. **No-spec / inert-spec bit-identity** — an engine with ``energy=None``
   is the PR-9 engine by construction (every energy branch is gated on
   the spec), and an engine carrying a *single-state* spec at the native
   clock (``frequencies=(1.0,)``, fixed governor) must be
   outcome-fingerprint-identical to it: at f=1.0 the manager reuses the
   unscaled cost model and charging is observation-only, so joule
   accounting can never move a timestamp.
2. **Telescoping** — with a spec, across every chaos seed and under a
   fault storm (kernel faults, stragglers, a device loss): on every alive
   device, the attribution oracle's attributed + unattributed joules
   equal the model's active total within 1e-9 at drain, and integrated
   energy is exactly active + idle.
3. **Physics** — a pinned lower clock burns fewer active joules on the
   same workload (energy/kernel goes as f^(exponent-1)); the adaptive
   governors actually move the knob; DVFS trace instants carry the
   ``@x``-named scaled tables.
4. **Registry plumbing** — EnergySpec rides ServerSpec through the JSON
   round trip, a non-batchmaker spec carrying one is rejected at build
   time, and a runtime override beats the spec.
"""

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.faults import DeviceFailure, FaultPlan
from repro.gpu.energy import EnergySpec
from repro.models import LSTMChainModel
from repro.registry import ServerSpec, build_server
from repro.registry.presets import lstm_energy_spec, v100_energy_spec
from repro.trace import TraceRecorder
from repro.trace import events as trace_events

from .chaos_helpers import (
    assert_invariants,
    chaos_seeds,
    outcome_fingerprint,
    run_chaos,
)
from .oracles import energy_attribution
from .oracles.bruteforce_scheduler import install_reference_scans


def _server(energy=None, indexed=True, num_gpus=2, fault_plan=None):
    """``indexed=False`` schedules by the brute-force scans of
    ``tests/oracles/bruteforce_scheduler.py``; with an energy spec the
    per-request split of ``tests/oracles/energy_attribution.py`` books
    beside the engine."""
    server = BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(64),
        num_gpus=num_gpus,
        fault_plan=fault_plan,
        energy=energy,
    )
    if energy is not None:
        energy_attribution.install(server)
    return server if indexed else install_reference_scans(server)


def _books(server, worker):
    """The attribution oracle's books of ``worker``'s device."""
    (oracle,) = [
        e for e in server.manager.extensions
        if isinstance(e, energy_attribution.EnergyAttribution)
    ]
    return oracle.books[worker.worker_id]


def _native_clock_spec(governor="fixed"):
    """A spec that observes but cannot steer: one state, the native clock."""
    return EnergySpec(frequencies=(1.0,), governor=governor)


def _storm_plan(seed):
    return FaultPlan(
        seed=seed,
        kernel_failure_rate=0.05,
        straggler_rate=0.08,
        straggler_multiplier=4.0,
        device_failures=[DeviceFailure(15e-3, 1)],
    )


def _telescope(server):
    """Assert the §17 energy invariant on every device, return the fleet's
    active joules (for non-vacuousness checks at the call site)."""
    now = server.loop.now()
    total_active = 0.0
    for worker in server.manager.workers:
        model, books = worker.device.energy, _books(server, worker)
        assert model is not None
        assert abs(
            books.attributed + books.unattributed - model.active_joules
        ) < 1e-9, f"device {worker.worker_id} books don't telescope"
        busy = worker.device.timeline.busy_time(
            since=model.start_time, until=now
        )
        assert model.integrated_joules(now, busy) == pytest.approx(
            model.active_joules + model.idle_joules(now, busy)
        )
        total_active += model.active_joules
    return total_active


# -- 1. bit-identity --------------------------------------------------------


@pytest.mark.parametrize("indexed", [True, False])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_native_clock_spec_is_bit_identical_to_no_spec(seed, indexed):
    """Energy accounting at the native clock is pure observation: same
    terminal outcomes, timestamps, counters and batch compositions as the
    energy-blind engine, for both formation paths and every chaos seed."""
    fingerprints = []
    for energy in (None, _native_clock_spec()):
        server = _server(energy=energy, indexed=indexed)
        submitted = run_chaos(
            server, rate=4000.0, num_requests=400, arrival_seed=seed
        )
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server, accounting=False))
    assert fingerprints[0] == fingerprints[1], (
        f"energy accounting perturbed the schedule (seed={seed}, "
        f"indexed={indexed})"
    )
    # ...and it really was watching, not disabled.
    assert _telescope(server) > 0
    assert all(
        _books(server, w).tasks_charged > 0 for w in server.manager.workers
    )


@pytest.mark.parametrize("seed", chaos_seeds())
def test_native_clock_bit_identity_survives_fault_storm(seed):
    """Same equivalence under kernel faults, stragglers and a device loss:
    retries and reroutes are charged, never rescheduled."""
    fingerprints = []
    for energy in (None, _native_clock_spec()):
        server = _server(energy=energy, fault_plan=_storm_plan(seed))
        submitted = run_chaos(server, num_requests=300, arrival_seed=seed)
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server, accounting=False))
    assert fingerprints[0] == fingerprints[1]


def test_no_spec_leaves_devices_energy_blind():
    server = _server(energy=None)
    run_chaos(server, num_requests=50)
    assert server.energy is None
    assert server.energy_joules() == 0.0
    for worker in server.manager.workers:
        assert worker.device.energy is None


# -- 2. telescoping under chaos ---------------------------------------------


@pytest.mark.parametrize("governor", ["race_to_idle", "headroom"])
@pytest.mark.parametrize("seed", chaos_seeds())
def test_books_telescope_at_drain(seed, governor):
    server = _server(energy=v100_energy_spec(governor=governor))
    submitted = run_chaos(
        server, rate=2000.0, num_requests=400, arrival_seed=seed
    )
    assert_invariants(server, submitted)
    assert _telescope(server) > 0
    assert server.energy_joules() > 0
    # The adaptive governor actually moved the knob (else the test says
    # nothing about frequency-scaled charging).
    assert any(
        w.device.energy.frequency_changes > 0 for w in server.manager.workers
    ), f"{governor} never changed frequency — deaden the workload less"


@pytest.mark.parametrize("seed", chaos_seeds())
def test_books_telescope_under_fault_storm(seed):
    """Faults included: straggler-stretched kernels charge their real
    duration, retries charge again, and a dead device's books reset."""
    server = _server(
        energy=v100_energy_spec(), fault_plan=_storm_plan(seed)
    )
    submitted = run_chaos(server, num_requests=300, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert _telescope(server) > 0
    dead = [w for w in server.manager.workers if not w.alive]
    assert dead, "the storm's device failure never fired"
    for worker in dead:
        # reset() at death: the dead board's books restarted and nothing
        # ran on it afterwards.
        assert worker.device.energy.active_joules == 0.0
        assert _books(server, worker).tasks_charged == 0
    # Fleet totals skip dead boards.
    assert server.energy_joules() == pytest.approx(
        sum(
            w.device.energy.integrated_joules(
                server.loop.now(),
                w.device.timeline.busy_time(
                    since=w.device.energy.start_time, until=server.loop.now()
                ),
            )
            for w in server.manager.workers
            if w.alive
        )
    )


def test_per_request_attribution_sums_to_attributed():
    server = _server(energy=_native_clock_spec())
    submitted = run_chaos(server, num_requests=200)
    assert_invariants(server, submitted)
    for worker in server.manager.workers:
        books = _books(server, worker)
        per_request = books.per_request
        assert sum(per_request.values()) == pytest.approx(books.attributed)
        assert books.attributed == pytest.approx(worker.device.energy.active_joules)
        assert set(per_request) <= {r.request_id for r in submitted}


# -- 3. physics and DVFS plumbing -------------------------------------------


def test_lower_pinned_clock_burns_fewer_active_joules():
    """Same workload, half the clock: kernels stretch 2x but dynamic power
    drops 8x (cubic), so active joules land at a quarter."""
    active = {}
    for frequency in (1.0, 0.5):
        spec = EnergySpec(
            frequencies=(frequency,), governor="fixed", active_watts=200.0
        )
        server = _server(energy=spec, num_gpus=1)
        submitted = run_chaos(server, rate=500.0, num_requests=200)
        assert_invariants(server, submitted)
        active[frequency] = _telescope(server)
    assert active[0.5] < 0.5 * active[1.0]


def test_dvfs_trace_instants_carry_scaled_table_names():
    server = _server(energy=v100_energy_spec(governor="race_to_idle"))
    recorder = TraceRecorder(server.loop)
    server.attach_trace(recorder)
    submitted = run_chaos(server, rate=2000.0, num_requests=300)
    assert_invariants(server, submitted)
    changes = recorder.events(name=trace_events.DVFS_FREQUENCY)
    assert changes, "governor never changed frequency under this workload"
    for event in changes:
        frequency = event.args["frequency"]
        assert frequency in (0.6, 0.8, 1.0)
        for table_name in event.args["tables"]:
            if frequency == 1.0:
                assert "@x" not in table_name  # the unscaled native table
            else:
                assert table_name.endswith(f"@x{1.0 / frequency:g}")


def test_worker_cost_model_follows_the_governor():
    """After a run, each worker's installed cost model matches its device's
    final frequency (the pointer swap really happened)."""
    server = _server(energy=v100_energy_spec(governor="race_to_idle"))
    submitted = run_chaos(server, rate=2000.0, num_requests=300)
    assert_invariants(server, submitted)
    for worker in server.manager.workers:
        frequency = worker.device.energy.frequency
        expected = server.energy.cost_models[frequency]
        assert worker.cost_model is expected


# -- 4. registry plumbing ---------------------------------------------------


def test_server_spec_energy_round_trip():
    spec = lstm_energy_spec()
    assert spec.energy is not None
    restored = ServerSpec.from_dict(spec.to_dict())
    assert restored.energy == spec.energy
    server = build_server(restored)
    assert server.energy.spec == EnergySpec.from_dict(spec.energy)
    for worker in server.manager.workers:
        assert worker.device.energy is not None
        assert worker.device.energy.idle_watts == 50.0


def test_energy_on_baseline_engine_rejected():
    """The graph-batching baselines have no per-kernel submission point to
    charge; an energy spec on one is a config error caught at build time."""
    spec = ServerSpec(
        kind="padded",
        model="lstm",
        energy=v100_energy_spec().to_dict(),
    )
    with pytest.raises(ValueError, match="batchmaker"):
        build_server(spec)


def test_runtime_energy_override_wins():
    spec = lstm_energy_spec()
    override = EnergySpec(idle_watts=1.0, active_watts=10.0)
    server = build_server(spec, energy=override)
    assert server.energy.spec == override
