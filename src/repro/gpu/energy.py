"""Per-device energy accounting and DVFS governors.

The paper's cellular batching keeps GPUs busy with fused batches but never
asks what that costs in joules.  E-BATCH (PAPERS.md) shows the batching
policy directly trades energy per inference against latency via batch size
and core frequency.  This module adds the bookkeeping half of that trade:

``EnergySpec``
    A JSON-round-trippable value object (peer to ``gpu.memory.MemorySpec``)
    describing a device's power envelope: idle/static watts, active watts at
    nominal frequency, the discrete DVFS frequency states available, and
    which governor runs the knob.

``EnergyModel``
    Strict per-device accounting attached to ``GPUDevice.energy`` (peer to
    ``GPUDevice.memory``).  Active energy is charged per batched kernel at
    submission — duration x dynamic watts at the frequency then in effect.
    Idle energy is integrated against the device's busy total at read
    time, so integrated energy is exactly active + idle.  A dead device's
    books stopped at its death: it reads 0.0 J.  The per-request split of
    the active joules is a test oracle (``tests/oracles/energy_attribution.py``),
    whose books telescope to the active total (DESIGN.md §28).

``EnergyAccounting``
    The engine extension (DESIGN.md §22) that puts a model and a governor
    on every device and swaps in the frequency-scaled cost models.

Governors (``GOVERNORS``)
    Pluggable per-worker frequency policies.  Decisions happen only at
    batch boundaries (the ``on_task_submit`` hook) so the engine stays
    deterministic and the fast path stays bit-identical when energy is off.
    ``fixed`` pins one state; ``race_to_idle`` runs a time-weighted
    utilization EWMA and races at max frequency under load, dropping to
    the lowest state when the device goes quiet; ``headroom`` picks the
    slowest state that keeps the busy fraction under a target — the
    energy-optimal stable policy under superlinear dynamic power.

Physics convention: frequencies are relative to the calibrated table
(1.0 = the table's native clock).  Kernel time scales as 1/f (the extension
swaps in ``LatencyTable.scale(1/f)`` tables, named ``{base}@x{factor}``)
and dynamic power as f**POWER_EXPONENT (cubic, the classical CMOS
``C V^2 f`` with voltage tracking frequency).  Net: energy per kernel goes
as f**(POWER_EXPONENT - 1) — lower states trade latency for joules, which
is what makes the energy-vs-p99 Pareto frontier in ``fig_energy`` nontrivial.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.extension import EngineExtension
from repro.spec import Spec

DEFAULT_IDLE_WATTS = 50.0
DEFAULT_ACTIVE_WATTS = 250.0
#: Dynamic power scales as ``f ** POWER_EXPONENT``.
POWER_EXPONENT = 3.0


class EnergySpec(Spec):
    """Declarative power envelope for a device class.

    Parameters
    ----------
    idle_watts:
        Static draw while the device exists, busy or not (>= 0).
    active_watts:
        Dynamic draw while a kernel runs at relative frequency 1.0 (> 0).
    frequencies:
        Discrete DVFS states, relative to the calibrated latency table
        (1.0 = native clock).  Sorted ascending, deduplicated; every state
        must be positive.
    governor:
        Name in ``GOVERNORS`` ("fixed", "race_to_idle" or "headroom").
    """

    idle_watts: float = DEFAULT_IDLE_WATTS
    active_watts: float = DEFAULT_ACTIVE_WATTS
    frequencies: Sequence[float] = (1.0,)
    governor: str = "fixed"

    def __post_init__(self):
        if self.idle_watts < 0:
            raise ValueError(f"idle_watts must be >= 0, got {self.idle_watts}")
        if self.active_watts <= 0:
            raise ValueError(f"active_watts must be > 0, got {self.active_watts}")
        freqs = tuple(sorted(set(float(f) for f in self.frequencies)))
        if not freqs:
            raise ValueError("frequencies must be non-empty")
        if freqs[0] <= 0:
            raise ValueError(f"frequencies must be positive, got {freqs[0]}")
        if self.governor not in GOVERNORS:
            raise ValueError(
                f"unknown governor {self.governor!r}; expected one of "
                f"{sorted(GOVERNORS)}"
            )
        self.idle_watts = float(self.idle_watts)
        self.active_watts = float(self.active_watts)
        self.frequencies = freqs


class EnergyModel:
    """Joule accounting for one device.

    Active energy is charged per task via :meth:`charge_task`; idle energy
    is derived at read time from the wall-clock span minus the device's
    busy time (the caller supplies it from the device's busy total, so
    this class stays clock-free).  ``reset(now)`` zeroes the books when a
    device dies — a replacement device starts a fresh integration window,
    exactly like ``MemoryModel.reset()``.
    """

    def __init__(
        self,
        idle_watts: float = DEFAULT_IDLE_WATTS,
        active_watts: float = DEFAULT_ACTIVE_WATTS,
        frequency: float = 1.0,
        start_time: float = 0.0,
    ):
        if frequency <= 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        self.idle_watts = float(idle_watts)
        self.active_watts = float(active_watts)
        self.frequency = float(frequency)
        self.start_time = float(start_time)
        self.active_joules = 0.0
        self.frequency_changes = 0

    @classmethod
    def from_spec(cls, spec: EnergySpec, start_time: float = 0.0) -> "EnergyModel":
        return cls(
            idle_watts=spec.idle_watts,
            active_watts=spec.active_watts,
            frequency=spec.frequencies[-1],
            start_time=start_time,
        )

    @property
    def dynamic_watts(self) -> float:
        """Active power draw at the current frequency."""
        return self.active_watts * self.frequency**POWER_EXPONENT

    def set_frequency(self, frequency: float) -> None:
        if frequency <= 0:
            raise ValueError(f"frequency must be positive, got {frequency}")
        if frequency != self.frequency:
            self.frequency = float(frequency)
            self.frequency_changes += 1

    def charge_task(self, duration: float) -> float:
        """Charge one batched kernel at the current frequency.

        ``duration`` is the task's final wall duration (stragglers and
        gather/migration overheads included — they burn power too).
        Returns the joules charged.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        joules = duration * self.dynamic_watts
        self.active_joules += joules
        return joules

    def idle_joules(self, now: float, busy_time: float) -> float:
        """Static energy: idle watts over the non-busy span since start."""
        span = max(0.0, now - self.start_time)
        return self.idle_watts * max(0.0, span - busy_time)

    def integrated_joules(self, now: float, busy_time: float) -> float:
        """Total device energy: active charges plus integrated idle power."""
        return self.active_joules + self.idle_joules(now, busy_time)

    def reset(self, now: float) -> None:
        """Forget everything; the next integration window starts at ``now``.

        Called when the device dies: a replacement board starts cold, and
        the old board's books stop (energy already spent on doomed work is
        intentionally dropped, mirroring ``MemoryModel.reset()``).
        """
        self.start_time = float(now)
        self.active_joules = 0.0


class FixedGovernor:
    """Pin one frequency state forever (default: the highest)."""

    name = "fixed"

    def __init__(self, frequencies: Sequence[float], frequency: Optional[float] = None):
        freqs = tuple(frequencies)
        if frequency is None:
            frequency = freqs[-1]
        if frequency not in freqs:
            raise ValueError(
                f"fixed governor frequency {frequency} not in states {list(freqs)}"
            )
        self.frequency = float(frequency)

    def initial_frequency(self) -> float:
        return self.frequency

    def decide(self, now: float, busy_time: float) -> float:
        return self.frequency


class _UtilizationEWMA:
    """Time-weighted EWMA of the device's busy fraction.

    Batch-boundary decisions cluster during bursts: dozens of samples
    with busy fraction ~1 arrive back to back, while the long idle gap
    before the next burst contributes exactly *one* sample.  A
    constant-alpha EWMA therefore pins near 1 regardless of the true
    duty cycle.  Weighting each sample by the wall time it spans —
    ``w = wall / (wall + tau)`` — makes the estimate converge to the
    true time-averaged busy fraction: a 50 ms idle gap outweighs fifty
    0.2 ms burst samples, as it should.
    """

    def __init__(self, tau: float):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self.utilization = 0.0
        self._last_now: Optional[float] = None
        self._last_busy = 0.0

    def observe(self, now: float, busy_time: float, scale: float = 1.0) -> float:
        """Fold the window since the previous call into the estimate.

        ``scale`` multiplies this window's busy fraction before folding —
        the headroom governor normalises each window by the clock it ran
        at (a per-window property, so it cannot be applied to the
        cumulative ``busy_time`` counter)."""
        if self._last_now is None:
            self._last_now = now
            self._last_busy = busy_time
            return self.utilization
        wall = now - self._last_now
        if wall > 0:
            used = min(1.0, max(0.0, (busy_time - self._last_busy) / wall)) * scale
            weight = wall / (wall + self.tau)
            self.utilization += weight * (used - self.utilization)
            self._last_now = now
            self._last_busy = busy_time
        return self.utilization


class RaceToIdleGovernor:
    """Utilization-EWMA race-to-idle.

    Above ``high`` it races at the top state (finish fast, then idle);
    below ``low`` it drops to the bottom state (the device is mostly
    idle anyway, so stretch the rare kernels and save
    ``f**(POWER_EXPONENT-1)`` per joule); in between it holds the
    current state (hysteresis, so the knob doesn't chatter).  Decisions
    are a pure function of (now, cumulative busy time), so runs stay
    seed-deterministic.
    """

    name = "race_to_idle"

    def __init__(
        self,
        frequencies: Sequence[float],
        tau: float = 10e-3,
        low: float = 0.25,
        high: float = 0.75,
    ):
        if not 0 <= low < high <= 1:
            raise ValueError(
                f"need 0 <= low < high <= 1, got low={low} high={high}"
            )
        freqs = tuple(frequencies)
        self.min_frequency = freqs[0]
        self.max_frequency = freqs[-1]
        self.low = float(low)
        self.high = float(high)
        self._ewma = _UtilizationEWMA(tau)
        self._frequency = freqs[-1]

    @property
    def utilization(self) -> float:
        return self._ewma.utilization

    def initial_frequency(self) -> float:
        return self._frequency

    def decide(self, now: float, busy_time: float) -> float:
        utilization = self._ewma.observe(now, busy_time)
        if utilization >= self.high:
            self._frequency = self.max_frequency
        elif utilization <= self.low:
            self._frequency = self.min_frequency
        return self._frequency


class HeadroomGovernor:
    """Stretch kernels into the utilization headroom.

    With superlinear dynamic power, energy per kernel falls as
    ``f**(POWER_EXPONENT-1)`` — so the energy-optimal stable policy is
    the *slowest* state that still keeps the device's busy fraction
    under ``target`` (queues stay stable, latency grows by at most the
    clock ratio).  The governor tracks a frequency-normalised demand
    estimate (busy fraction x current clock, i.e. the busy fraction the
    workload would produce at the top state) and picks, each batch
    boundary, the lowest state whose predicted busy fraction
    ``demand * f_max / f`` stays under ``target`` — falling back to the
    top state when even that is saturated.  This is the governor that
    traces the nontrivial edge of fig_energy's Pareto frontier.
    """

    name = "headroom"

    def __init__(
        self,
        frequencies: Sequence[float],
        tau: float = 10e-3,
        target: float = 0.85,
    ):
        if not 0 < target <= 1:
            raise ValueError(f"target must be in (0, 1], got {target}")
        self.frequencies = tuple(frequencies)
        self.max_frequency = self.frequencies[-1]
        self.target = float(target)
        self._ewma = _UtilizationEWMA(tau)
        self._frequency = self.max_frequency

    def initial_frequency(self) -> float:
        return self._frequency

    def decide(self, now: float, busy_time: float) -> float:
        # The window since the last decision ran entirely at the frequency
        # chosen then (frequency only changes at decisions), so normalise
        # its busy fraction by that clock before folding it in.
        raw = self._ewma.observe(
            now, busy_time, scale=self._frequency / self.max_frequency
        )
        for frequency in self.frequencies:
            if raw * self.max_frequency / frequency <= self.target:
                self._frequency = frequency
                return frequency
        self._frequency = self.max_frequency
        return self._frequency


GOVERNORS = {
    FixedGovernor.name: FixedGovernor,
    RaceToIdleGovernor.name: RaceToIdleGovernor,
    HeadroomGovernor.name: HeadroomGovernor,
}


def make_governor(name: str, frequencies: Sequence[float]):
    """Instantiate a registered governor, with its default parameters, over
    the given frequency states."""
    try:
        cls = GOVERNORS[name]
    except KeyError:
        raise ValueError(
            f"unknown governor {name!r}; expected one of {sorted(GOVERNORS)}"
        ) from None
    return cls(frequencies)


class EnergyAccounting(EngineExtension):
    """Joule accounting and DVFS for one engine (DESIGN.md §17): every
    device gets an :class:`EnergyModel` (the worker charges each kernel to
    it) and a governor.  Governors decide at the batch boundary only, so
    the schedule stays deterministic; retries reuse the frequency then in
    effect."""

    def __init__(self, spec: EnergySpec):
        self.spec = spec

    def attach(self, engine) -> None:
        self.engine = engine
        self.governors: Dict[int, object] = {}  # by worker id
        spec, base = self.spec, engine.cost_model
        # One scaled cost model per DVFS state: kernel time goes as 1/f
        # relative to the calibrated table (tables carry ``@x`` names so
        # traces stay attributable), precomputed so a frequency change is
        # a pointer swap at the batch boundary.
        self.cost_models = {
            f: base if f == 1.0 else base.scaled(1.0 / f) for f in spec.frequencies
        }
        now = engine.loop.now()
        for worker in engine.workers:
            worker.device.energy = EnergyModel.from_spec(spec, start_time=now)
            governor = make_governor(spec.governor, spec.frequencies)
            self.governors[worker.worker_id] = governor
            self._set_frequency(worker, governor.initial_frequency())

    def on_task_submit(self, task, worker) -> None:
        if task.attempt:
            return
        governor = self.governors[worker.worker_id]
        frequency = governor.decide(self.engine.loop.now(), worker.busy_time)
        if frequency != worker.device.energy.frequency:
            self._set_frequency(worker, frequency)

    def _set_frequency(self, worker, frequency: float) -> None:
        worker.cost_model = self.cost_models[frequency]
        worker.device.energy.set_frequency(frequency)

    def device_joules(self, worker) -> float:
        """Active charges plus idle power of one device's integration
        window, at the current sim time; 0.0 for a dead device, whose books
        stopped at its death."""
        if not worker.alive:
            return 0.0
        # The window opened at attach, before the device ran anything, so
        # the device's whole busy total falls inside it.
        device, now = worker.device, self.engine.loop.now()
        return device.energy.integrated_joules(now, device.busy_time(now))

    def total_joules(self) -> float:
        """Integrated energy across the devices: the sum of their
        :meth:`device_joules` rows."""
        return sum(self.device_joules(w) for w in self.engine.workers)

    def joules_per_cell(self) -> float:
        """Estimated marginal joules to serve one cell: the cheapest alive
        device's dynamic power times the engine's EWMA per-node service
        time (the cluster's ``energy_cost`` metric); infinite with no
        alive device."""
        watts = [
            w.device.energy.dynamic_watts for w in self.engine.workers if w.alive
        ]
        return min(watts) * self.engine.node_time_estimate if watts else float("inf")
