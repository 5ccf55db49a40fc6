"""EWMA-load autoscaling.

The autoscaler watches the cluster's outstanding-requests-per-alive-replica
through an EWMA and adds or drains replicas when the smoothed load crosses
its watermarks.  It is *event-driven*: the signal is sampled after every
routing decision rather than on a timer, so an idle cluster schedules no
wake-ups and a drained event loop still terminates — the only events the
autoscaler ever schedules are warm-up completions, which are finite.

Scaling up pays a configurable warm-up cost: the new replica is built
immediately (so its parameters, queues and devices exist) but becomes
routable only ``warmup`` virtual seconds later — the moral equivalent of
loading weights onto a fresh GPU.  Scaling down never kills work: the
victim replica stops receiving new requests (DRAINING) and retires once
its outstanding count reaches zero.

Every decision is a deterministic function of the cluster's observed
state, so fixed-seed runs replay the exact same scaling timeline
(``cluster.scale_events``).
"""

from __future__ import annotations

from typing import Optional

from repro.spec import Spec


class AutoscalerConfig(Spec):
    """Autoscaling knobs, JSON round-trippable (nested in ``ClusterSpec``).

    Parameters
    ----------
    min_replicas / max_replicas:
        Hard bounds on the serving replica count (warming replicas count
        toward ``max`` so a burst can't spawn unboundedly during warm-up).
    high_watermark / low_watermark:
        EWMA outstanding-requests-per-alive-replica thresholds for scaling
        up / down.
    alpha:
        EWMA smoothing factor in (0, 1]; higher reacts faster.
    warmup:
        Virtual seconds between spawning a replica and it becoming
        routable.
    cooldown:
        Minimum virtual seconds between scaling actions (prevents
        thrashing between the watermarks).
    """

    min_replicas: int = 1
    max_replicas: int = 8
    high_watermark: float = 64.0
    low_watermark: float = 8.0
    alpha: float = 0.2
    warmup: float = 5e-3
    cooldown: float = 20e-3

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ValueError("need 0 <= low_watermark < high_watermark")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.warmup < 0 or self.cooldown < 0:
            raise ValueError("warmup and cooldown must be >= 0")
        self.min_replicas = int(self.min_replicas)
        self.max_replicas = int(self.max_replicas)
        self.high_watermark = float(self.high_watermark)
        self.low_watermark = float(self.low_watermark)
        self.alpha = float(self.alpha)
        self.warmup = float(self.warmup)
        self.cooldown = float(self.cooldown)

    def __repr__(self) -> str:
        return (
            f"AutoscalerConfig([{self.min_replicas}, {self.max_replicas}], "
            f"watermarks=({self.low_watermark:g}, {self.high_watermark:g}), "
            f"warmup={self.warmup:g}s, cooldown={self.cooldown:g}s)"
        )


class Autoscaler:
    """Watches one cluster and drives its replica count."""

    def __init__(self, cluster, config: AutoscalerConfig):
        self.cluster = cluster
        self.config = config
        self.ewma: Optional[float] = None
        self._last_action_at = float("-inf")

    def observe(self, now: float) -> None:
        """Fold the current load sample into the EWMA and act on it.
        Called by the cluster after each routing decision."""
        cluster = self.cluster
        alive = cluster._alive  # kept at state transitions, not scanned
        if not alive:
            return  # replica failure handling owns this regime
        load = sum(r.outstanding() for r in alive) / len(alive)
        if self.ewma is None:
            self.ewma = load
        else:
            self.ewma += self.config.alpha * (load - self.ewma)
        if now - self._last_action_at < self.config.cooldown:
            return
        warming = cluster._warming
        if (
            self.ewma > self.config.high_watermark
            and len(alive) + warming < self.config.max_replicas
        ):
            cluster._spawn_replica(now)
            self._last_action_at = now
        elif (
            self.ewma < self.config.low_watermark
            and warming == 0
            and len(alive) > self.config.min_replicas
        ):
            cluster._drain_replica(now)
            self._last_action_at = now

    def __repr__(self) -> str:
        ewma = "unprimed" if self.ewma is None else f"{self.ewma:.2f}"
        return f"<Autoscaler ewma={ewma} {self.config!r}>"
