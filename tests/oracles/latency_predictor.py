"""The online latency predictor, kept as the oracle for the engine's
own estimates.

Until DESIGN.md §38 ``repro.policies.predict`` answered "how long will
this work take" a second time: :class:`LatencyPredictor` kept five EWMAs,
and :class:`PredictorFeed` fed its per-node one from the same task stream,
with the same 0.05 weight and first-sample rule, as the manager's
``node_time_estimate``.  The lazy kick's slack read
``predicted_service(remaining_nodes)``, and each cluster replica's
``predicted_delay`` read ``predicted_queue_delay(outstanding)`` of a
predictor fed only finished-shadow latencies and inter-finish gaps.

Both readers now compute the same numbers inline: the kick as
``remaining_nodes * Manager.node_time_estimate``, a replica from its own
Little's-law pair.  ``tests/test_predictor.py`` feeds this module exactly
as the engine used to and holds those inline numbers to it, bit for bit,
on every corpus row that reads them.  The classes below are unchanged.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.extension import EngineExtension


def _usable(sample: float) -> bool:
    """Only finite, non-negative samples enter the EWMAs — the predictions
    inherit finiteness/non-negativity from the state, so garbage must be
    refused at the door."""
    return isinstance(sample, (int, float)) and math.isfinite(sample) and sample >= 0.0


class LatencyPredictor:
    """Deterministic EWMA state over observed service times.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; matches the manager's
        load-shedding estimate's responsiveness by default.
    """

    def __init__(self, alpha: float = 0.05):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        # Per-node service seconds (task duration / batch size).
        self.node_time = 0.0
        # Per-request end-to-end latency and its queue/compute split.
        self.request_latency = 0.0
        self.request_queue = 0.0
        self.request_service = 0.0
        # Mean gap between consecutive request completions — the observed
        # service *rate*, which turns an outstanding count into a wait
        # estimate by Little's law (wait ~ outstanding x gap).
        self.completion_gap = 0.0
        self.tasks_observed = 0
        self.requests_observed = 0

    # -- observation ---------------------------------------------------------

    def _fold(self, current: float, sample: float) -> float:
        if current == 0.0:
            return sample
        return current + self.alpha * (sample - current)

    def observe_task(self, duration: float, batch_size: int) -> None:
        """A batched task retired: fold its per-node service time."""
        if not batch_size or not _usable(duration):
            return
        self.node_time = self._fold(self.node_time, duration / batch_size)
        self.tasks_observed += 1

    def observe_request(
        self,
        latency: float,
        queue_time: Optional[float] = None,
        service_time: Optional[float] = None,
    ) -> None:
        """A request reached a terminal state: fold its latency (and, when
        known, the queue/compute split the request object carries)."""
        if not _usable(latency):
            return
        self.request_latency = self._fold(self.request_latency, latency)
        if queue_time is not None and _usable(queue_time):
            self.request_queue = self._fold(self.request_queue, queue_time)
        if service_time is not None and _usable(service_time):
            self.request_service = self._fold(self.request_service, service_time)
        self.requests_observed += 1

    def observe_gap(self, gap: float) -> None:
        """Seconds between two consecutive completions at the observed
        server: the reciprocal throughput behind the Little's-law wait."""
        if _usable(gap):
            self.completion_gap = self._fold(self.completion_gap, gap)

    # -- prediction ----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether any observation has arrived (cold predictors predict 0,
        which callers treat as 'no information, do not delay/reject')."""
        return bool(self.tasks_observed or self.requests_observed)

    def predicted_service(self, node_count: Optional[int] = None) -> float:
        """Predicted remaining service seconds for ``node_count`` still-
        uncomputed nodes (best available estimate when None): per-node EWMA
        scaled by the remaining work, falling back to the request-level
        compute estimates."""
        if node_count is not None and node_count >= 0 and self.node_time > 0.0:
            return node_count * self.node_time
        if self.request_service > 0.0:
            return self.request_service
        return self.request_latency

    def predicted_queue_delay(self, queue_depth: float, backlog: float = 0.0) -> float:
        """Predicted seconds until a new arrival behind ``queue_depth``
        units of work completes, plus a known device ``backlog``.  The
        per-unit drain time is the observed inter-completion gap (Little's
        law: wait ~ outstanding x gap), falling back to per-node then
        per-request estimates when no gap has been observed.  Monotone
        non-decreasing in ``queue_depth`` by construction."""
        depth = max(0.0, float(queue_depth))
        base = max(0.0, float(backlog)) if math.isfinite(backlog) else 0.0
        if self.completion_gap > 0.0:
            per_unit = self.completion_gap
        elif self.node_time > 0.0:
            per_unit = self.node_time
        else:
            per_unit = self.request_latency
        return base + depth * per_unit

    # -- identity ------------------------------------------------------------

    def state(self) -> tuple:
        """The full EWMA state as a hashable fingerprint (determinism
        tests compare serial vs forked sweeps on this)."""
        return (
            self.node_time,
            self.request_latency,
            self.request_queue,
            self.request_service,
            self.completion_gap,
            self.tasks_observed,
            self.requests_observed,
        )

    def __repr__(self) -> str:
        return (
            f"<LatencyPredictor node={self.node_time * 1e6:.1f}us "
            f"request={self.request_latency * 1e3:.2f}ms "
            f"observed={self.tasks_observed}t/{self.requests_observed}r>"
        )


class PredictorFeed(EngineExtension):
    """Feeds one :class:`LatencyPredictor` from an engine's completed tasks
    and finished requests; the lazy-kick policy installs one for the
    predictor its slack computation reads."""

    def __init__(self, predictor: LatencyPredictor):
        self.predictor = predictor

    def on_task_done(self, task) -> None:
        if task.duration and task.batch_size:
            self.predictor.observe_task(task.duration, task.batch_size)

    def on_terminal(self, request) -> None:
        if request.finish_time is not None:
            self.predictor.observe_request(
                request.latency, request.queuing_time, request.computation_time
            )
