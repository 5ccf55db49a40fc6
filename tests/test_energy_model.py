"""Unit tests for ``repro.gpu.energy`` (DESIGN.md §17).

The value objects and physics in isolation: EnergySpec validation and the
JSON round trip, EnergyModel's joule bookkeeping (charge / attribute /
idle / reset), the structured ``{base}@x{factor}`` names DVFS-scaled
latency tables carry, and the three governors' decision rules — including
the time-weighted utilization EWMA that makes one long idle gap outweigh
a burst of back-to-back busy samples.
"""

import pytest

from repro.gpu.costmodel import LatencyTable
from repro.models import LSTMChainModel
from repro.gpu.energy import (
    GOVERNORS,
    EnergyModel,
    EnergySpec,
    FixedGovernor,
    HeadroomGovernor,
    RaceToIdleGovernor,
    _UtilizationEWMA,
    make_governor,
)

# -- EnergySpec --------------------------------------------------------------


def test_spec_round_trip():
    spec = EnergySpec(
        idle_watts=30.0,
        active_watts=200.0,
        frequencies=(0.6, 0.8, 1.0),
        governor="race_to_idle",
    )
    restored = EnergySpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.frequencies == (0.6, 0.8, 1.0)


def test_spec_sorts_and_dedups_frequencies():
    spec = EnergySpec(frequencies=(1.0, 0.6, 0.6, 0.8))
    assert spec.frequencies == (0.6, 0.8, 1.0)


def test_spec_replace():
    spec = EnergySpec(frequencies=(0.5, 1.0), governor="race_to_idle")
    pinned = spec.replace(governor="fixed")
    assert pinned.governor == "fixed"
    assert pinned.frequencies == spec.frequencies
    assert spec.governor == "race_to_idle"  # original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"idle_watts": -1.0},
        {"active_watts": 0.0},
        {"frequencies": ()},
        {"frequencies": (0.0, 1.0)},
        {"frequencies": (-0.5,)},
        {"governor": "turbo"},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        EnergySpec(**kwargs)


# -- EnergyModel -------------------------------------------------------------


def test_charge_splits_evenly_and_telescopes():
    model = EnergyModel(active_watts=100.0, frequency=1.0)
    joules = model.charge_task(2.0, [1, 2, 3, 4])
    assert joules == pytest.approx(200.0)
    assert model.active_joules == pytest.approx(200.0)
    assert model.request_joules(2) == pytest.approx(50.0)
    assert model.attributed_joules() == pytest.approx(200.0)
    assert model.unattributed_joules == 0.0
    # A memberless charge (can't happen from the engine, but the books
    # must still balance) lands in the unattributed bucket.
    model.charge_task(1.0, [])
    assert model.unattributed_joules == pytest.approx(100.0)
    assert model.attributed_joules() + model.unattributed_joules == (
        pytest.approx(model.active_joules)
    )
    assert model.tasks_charged == 2


def test_dynamic_power_scales_superlinearly():
    model = EnergyModel(active_watts=100.0, frequency=1.0)
    assert model.dynamic_watts == pytest.approx(100.0)
    model.set_frequency(0.5)
    assert model.dynamic_watts == pytest.approx(12.5)  # 100 * 0.5^3
    assert model.frequency_changes == 1
    model.set_frequency(0.5)  # no-op: same state
    assert model.frequency_changes == 1
    # Energy per unit of *work*: a kernel at half clock runs twice as long
    # at an eighth of the power — a quarter of the joules.
    slow = model.charge_task(2.0, [1])
    model.set_frequency(1.0)
    fast = model.charge_task(1.0, [2])
    assert slow == pytest.approx(fast / 4)


def test_idle_and_integrated_joules():
    model = EnergyModel(idle_watts=10.0, active_watts=100.0, start_time=1.0)
    model.charge_task(0.5, [7])
    # 3 s span, 0.5 s busy: 2.5 s of idle draw.
    assert model.idle_joules(4.0, 0.5) == pytest.approx(25.0)
    assert model.integrated_joules(4.0, 0.5) == pytest.approx(
        model.active_joules + 25.0
    )


def test_reset_starts_a_fresh_window():
    model = EnergyModel(idle_watts=10.0, start_time=0.0)
    model.charge_task(1.0, [1, 2])
    model.set_frequency(0.5)
    model.reset(5.0)
    assert model.active_joules == 0.0
    assert model.tasks_charged == 0
    assert model.attributed_joules() == 0.0
    assert model.request_joules(1) == 0.0
    assert model.start_time == 5.0
    assert model.idle_joules(6.0, 0.0) == pytest.approx(10.0)
    # The DVFS state survives a reset (it's the board's clock, not a book).
    assert model.frequency == 0.5


def test_charge_rejects_negative_duration():
    with pytest.raises(ValueError):
        EnergyModel().charge_task(-1.0, [1])


# -- DVFS table names --------------------------------------------------------


def test_scaled_table_gets_structured_name():
    table = LatencyTable({1: 10.0, 64: 100.0}, "v100-test")
    scaled = table.scale(1.25)
    assert scaled.name == "v100-test@x1.25"
    assert scaled(64) == pytest.approx(table(64) * 1.25)
    assert table.scale(2.0, name="custom").name == "custom"
    with pytest.raises(ValueError):
        table.scale(0.0)


def test_scaled_cost_model_keeps_names_and_overheads():
    model = LSTMChainModel().default_cost_model()
    scaled = model.scaled(1.0 / 0.8)
    for cell, table in scaled.tables().items():
        assert table.name == f"{model.tables()[cell].name}@x1.25"
        assert table(64) == pytest.approx(model.tables()[cell](64) * 1.25)
    # Overheads are host-side, not clocked by the accelerator.
    assert scaled.per_task_overhead == model.per_task_overhead
    assert scaled.gather_overhead == model.gather_overhead


# -- governors ---------------------------------------------------------------


def test_registry_and_make_governor():
    assert set(GOVERNORS) == {"fixed", "race_to_idle", "headroom"}
    governor = make_governor("fixed", (0.5, 1.0))
    assert isinstance(governor, FixedGovernor)
    with pytest.raises(ValueError, match="unknown governor"):
        make_governor("turbo", (1.0,))


def test_fixed_governor_pins():
    governor = FixedGovernor((0.6, 0.8, 1.0))
    assert governor.initial_frequency() == 1.0  # default: the top state
    assert governor.decide(1.0, 0.5) == 1.0
    pinned = FixedGovernor((0.6, 0.8, 1.0), frequency=0.8)
    assert pinned.decide(10.0, 10.0) == 0.8
    with pytest.raises(ValueError, match="not in states"):
        FixedGovernor((0.6, 1.0), frequency=0.7)


def test_ewma_is_time_weighted_not_sample_weighted():
    """Fifty back-to-back fully-busy 0.2 ms windows then one 50 ms idle
    gap: the gap spans far more wall time, so it must dominate.  (A
    constant-alpha EWMA over the same samples would stay pinned near 1.)"""
    ewma = _UtilizationEWMA(tau=10e-3)
    now, busy = 0.0, 0.0
    ewma.observe(now, busy)  # baseline
    for _ in range(50):
        now += 0.2e-3
        busy += 0.2e-3
        ewma.observe(now, busy)
    assert ewma.utilization > 0.4  # the burst registered
    ewma.observe(now + 50e-3, busy)  # one long idle window
    assert ewma.utilization < 0.25


def test_ewma_validation_and_clamping():
    with pytest.raises(ValueError):
        _UtilizationEWMA(tau=0.0)
    ewma = _UtilizationEWMA(tau=1e-3)
    ewma.observe(0.0, 0.0)
    # busy_time deltas beyond wall time (stragglers overlapping windows)
    # clamp to a busy fraction of 1.
    ewma.observe(1.0, 5.0)
    assert ewma.utilization <= 1.0


def test_race_to_idle_hysteresis():
    governor = RaceToIdleGovernor((0.5, 1.0), tau=1e-3, low=0.25, high=0.75)
    assert governor.initial_frequency() == 1.0
    # First decision: no utilization history yet -> estimate 0 -> min state.
    assert governor.decide(0.0, 0.0) == 0.5
    # A saturated window races back to the top state.
    assert governor.decide(10e-3, 10e-3) == 1.0
    assert governor.utilization >= 0.75
    # A middling window holds the current state (no chatter).
    assert governor.decide(20e-3, 15e-3) == 1.0
    # A long idle stretch drops to the bottom state.
    assert governor.decide(120e-3, 15e-3) == 0.5
    assert governor.utilization <= 0.25


def test_race_to_idle_validates_thresholds():
    with pytest.raises(ValueError):
        RaceToIdleGovernor((1.0,), low=0.8, high=0.5)
    with pytest.raises(ValueError):
        RaceToIdleGovernor((1.0,), low=-0.1, high=0.5)


def test_headroom_picks_slowest_state_meeting_target():
    governor = HeadroomGovernor((0.5, 1.0), tau=1e-3, target=0.8)
    assert governor.initial_frequency() == 1.0
    # No demand: the lowest state trivially satisfies the target.
    assert governor.decide(0.0, 0.0) == 0.5
    # Saturated windows at half clock: each is normalised by f/f_max, so
    # demand climbs toward 0.5 -> predicted busy fraction at f=0.5 is 1.0
    # (over target) while f=1.0 predicts 0.5 -> the governor moves up.
    for step in range(1, 30):
        frequency = governor.decide(step * 1e-3, step * 1e-3)
    assert frequency == 1.0
    # Demand drains away: back down to the efficient state.
    busy = 29e-3
    for step in range(1, 10):
        frequency = governor.decide(29e-3 + step * 20e-3, busy)
    assert frequency == 0.5
    assert governor.demand < 0.4


def test_headroom_validates_target():
    with pytest.raises(ValueError):
        HeadroomGovernor((1.0,), target=0.0)
    with pytest.raises(ValueError):
        HeadroomGovernor((1.0,), target=1.5)
