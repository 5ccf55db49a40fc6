"""Online latency prediction for SLA-aware scheduling.

The slack computation behind :class:`~repro.policies.slo.LazyKickPolicy`
(slack = deadline - now - predicted remaining service time) and the
cluster's ``predicted_delay`` routing metric both need a running estimate
of how long work takes.  :class:`LatencyPredictor` keeps that estimate as
a handful of EWMAs fed from three deterministic sources:

* **per-task observations** — the manager folds every completed task's
  per-node service time in (the same sample stream as its load-shedding
  EWMA);
* **per-request observations** — terminal requests contribute their
  end-to-end latency and its queue/compute split;
* **critical-path buckets** — :meth:`sync_from_trace` folds per-request
  :class:`~repro.trace.critical.RequestBreakdown` buckets from an attached
  :class:`~repro.trace.recorder.TraceRecorder`, so a traced run's
  queue/compute/gather/padding/retry/routing attribution refines the
  same estimates the online samples feed.

Every update is driven by a simulation event, never by the wall clock, so
predictor state is a pure function of the event sequence: serial and
``--jobs``-forked sweeps produce bit-identical predictions
(``tests/test_predictor.py`` holds this, plus the prediction properties:
finite, non-negative, monotone in queue depth).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.extension import EngineExtension
from repro.trace import events as trace_events

BUCKETS = trace_events.BUCKETS


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
        # Critical-path bucket means (queue/compute/gather/padding/retry/
        # routing), fed from traced runs.
        self.bucket_ewma: Dict[str, float] = {b: 0.0 for b in BUCKETS}
        self.tasks_observed = 0
        self.requests_observed = 0
        self.trace_requests_observed = 0

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

    def observe_buckets(self, buckets: Dict[str, float]) -> None:
        """Fold one request's critical-path bucket attribution."""
        for name in BUCKETS:
            sample = buckets.get(name)
            if sample is not None and _usable(sample):
                self.bucket_ewma[name] = self._fold(self.bucket_ewma[name], sample)

    def sync_from_trace(self, recorder) -> int:
        """Fold the per-request CriticalPath buckets of requests newly
        analysable from ``recorder``; returns how many were folded.  The
        analysis order is the recorder's deterministic event order, so
        repeated syncs fold each request exactly once (cursor on count)."""
        if recorder is None:
            return 0
        from repro.trace.critical import CriticalPath

        path = CriticalPath.from_recorder(recorder)
        fresh = path.requests[self.trace_requests_observed:]
        for breakdown in fresh:
            self.observe_buckets(breakdown.buckets)
            self.observe_request(breakdown.latency)
        self.trace_requests_observed += len(fresh)
        return len(fresh)

    # -- prediction ----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether any observation has arrived (cold predictors predict 0,
        which callers treat as 'no information, do not delay/reject')."""
        return bool(
            self.tasks_observed
            or self.requests_observed
            or self.trace_requests_observed
        )

    def predicted_service(self, node_count: Optional[int] = None) -> float:
        """Predicted remaining service seconds for ``node_count`` still-
        uncomputed nodes (best available estimate when None): per-node EWMA
        scaled by the remaining work, falling back to the request-level
        compute estimates."""
        if node_count is not None and node_count >= 0 and self.node_time > 0.0:
            return node_count * self.node_time
        if self.request_service > 0.0:
            return self.request_service
        compute = self.bucket_ewma[trace_events.COMPUTE]
        if compute > 0.0:
            return compute
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

    def predicted_completion(
        self,
        now: float,
        queue_depth: float = 0.0,
        node_count: Optional[int] = None,
        backlog: float = 0.0,
    ) -> float:
        """Predicted absolute completion time of a request arriving now."""
        return (
            now
            + self.predicted_queue_delay(queue_depth, backlog=backlog)
            + self.predicted_service(node_count)
        )

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
            tuple(self.bucket_ewma[b] for b in BUCKETS),
            self.tasks_observed,
            self.requests_observed,
            self.trace_requests_observed,
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
