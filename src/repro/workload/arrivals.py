"""Arrival processes.

The paper issues requests "with Poisson inter-arrival times", adjusting the
average inter-arrival time to sweep load (§7.1).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np


class PoissonArrivals:
    """Seeded open-loop Poisson arrival process at ``rate`` requests/second."""

    def __init__(self, rate: float, seed: int = 0, start: float = 0.0):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.rate = rate
        self.start = start
        self._rng = np.random.default_rng(seed)

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival timestamps."""
        if n < 0:
            raise ValueError("n must be non-negative")
        gaps = self._rng.exponential(1.0 / self.rate, size=n)
        return (self.start + np.cumsum(gaps)).tolist()


class BurstyArrivals:
    """Two-state Markov-modulated Poisson process (extension beyond the
    paper's Poisson-only workload).

    Alternates between a *calm* state at ``rate * (1 - burst_boost)``-ish
    and a *burst* state at an elevated rate, such that the long-run average
    rate equals ``rate``.  Used to probe how batching policies cope with
    arrival-correlation — cellular batching's join-anytime property pays
    off most under bursts.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        start: float = 0.0,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        mean_dwell: float = 50e-3,
    ):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if not 0 < burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        if mean_dwell <= 0:
            raise ValueError("mean_dwell must be positive")
        self.rate = rate
        self.start = start
        self.burst_rate = rate * burst_factor
        # Calm rate chosen so the time-weighted average equals `rate`.
        calm = (rate - burst_fraction * self.burst_rate) / (1 - burst_fraction)
        if calm <= 0:
            raise ValueError(
                "burst_factor * burst_fraction must stay below 1 to keep the "
                "calm-state rate positive"
            )
        self.calm_rate = calm
        self.burst_fraction = burst_fraction
        self.mean_dwell = mean_dwell
        self._rng = np.random.default_rng(seed)

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival timestamps."""
        if n < 0:
            raise ValueError("n must be non-negative")
        times: List[float] = []
        t = self.start
        in_burst = False
        state_ends = t + float(
            self._rng.exponential(self.mean_dwell * (1 - self.burst_fraction))
        )
        while len(times) < n:
            current = self.burst_rate if in_burst else self.calm_rate
            t += float(self._rng.exponential(1.0 / current))
            while t >= state_ends:
                in_burst = not in_burst
                dwell = self.mean_dwell * (
                    self.burst_fraction if in_burst else (1 - self.burst_fraction)
                )
                state_ends += float(self._rng.exponential(dwell))
            times.append(t)
        return times


class DiurnalArrivals:
    """Sinusoidal rate modulation over an MMPP base (day/night traffic).

    A two-state MMPP base process (:class:`BurstyArrivals`) runs at
    ``rate * (1 + amplitude)``; each candidate arrival at time ``t`` is then
    kept with probability::

        (1 + amplitude * sin(2*pi*t/period + phase)) / (1 + amplitude)

    Thinning a point process by a function bounded by 1 yields exactly the
    modulated intensity, so the long-run average rate is the nominal
    ``rate`` by construction (property-tested) while short-horizon
    burstiness comes from the MMPP base and the slow diurnal swing from the
    sinusoid.  With ``amplitude=0`` this degenerates to the plain MMPP at
    ``rate``.  Seed-deterministic: one ``default_rng(seed)`` drives the
    base (seed) and the thinning draws (seed + 1).
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        start: float = 0.0,
        period: float = 60.0,
        amplitude: float = 0.6,
        phase: float = 0.0,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        mean_dwell: float = 50e-3,
    ):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        self.rate = rate
        self.seed = seed
        self.start = start
        self.period = period
        self.amplitude = amplitude
        self.phase = phase
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        self.mean_dwell = mean_dwell
        # Validate the MMPP knobs eagerly (BurstyArrivals raises on bad
        # combinations) rather than at first times() call.
        self._make_base()

    def _make_base(self) -> BurstyArrivals:
        return BurstyArrivals(
            self.rate * (1 + self.amplitude),
            seed=self.seed,
            start=self.start,
            burst_factor=self.burst_factor,
            burst_fraction=self.burst_fraction,
            mean_dwell=self.mean_dwell,
        )

    def _keep_probability(self, t: float) -> float:
        swing = self.amplitude * math.sin(
            2 * math.pi * t / self.period + self.phase
        )
        return (1 + swing) / (1 + self.amplitude)

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival timestamps (restarts from ``start``)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return []
        # Thinning keeps 1/(1 + amplitude) of candidates on average; draw
        # with headroom and redraw the whole (deterministic) candidate
        # sequence larger if a trough left us short.
        draw = max(16, int(n * (1 + self.amplitude) * 1.25) + 8)
        while True:
            candidates = self._make_base().times(draw)
            accept = np.random.default_rng(self.seed + 1).random(draw)
            times = [
                t
                for t, u in zip(candidates, accept)
                if u < self._keep_probability(t)
            ]
            if len(times) >= n:
                return times[:n]
            draw *= 2


# Registry: arrival processes addressable by name from specs and CLIs.
ARRIVALS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


def make_arrivals(name: str, rate: float, seed: int = 0, **params):
    """Build a registered arrival process (``poisson``/``bursty``/``diurnal``)."""
    try:
        cls = ARRIVALS[name]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {name!r}; expected one of "
            f"{sorted(ARRIVALS)}"
        ) from None
    return cls(rate, seed=seed, **params)
