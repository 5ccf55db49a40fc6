"""Shared machinery for graph-batching baseline servers.

A graph-batching server keeps arriving requests in one or more queues.
Whenever a device is idle it forms the next batch (subclass policy),
executes the whole fused graph as one uninterruptible unit, and completes
every request in the batch at the same instant — exactly the behaviour
cellular batching removes (no joining, no early leaving).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.request import InferenceRequest
from repro.gpu.device import make_devices
from repro.models.base import Model
from repro.server import DeferredKick, InferenceServer
from repro.sim.events import EventLoop


class GraphBatchingServer(InferenceServer):
    """Base class: idle-device dispatch loop over a batch-forming policy."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        model: Model,
        num_gpus: int = 1,
    ):
        super().__init__(loop, name)
        self.model = model
        self.cost_model = model.default_cost_model()
        self.devices = make_devices(loop, num_gpus)
        self._device_busy = [False] * num_gpus
        self._dispatch = DeferredKick(loop, self._dispatch_idle_devices)
        self.batches_executed = 0
        self.batch_sizes: List[int] = []
        self._autotrace()

    # -- subclass policy ------------------------------------------------------

    def _enqueue(self, request: InferenceRequest) -> None:
        """Store an arriving request until it is batched."""
        raise NotImplementedError

    def _next_batch(self) -> Optional[Tuple[List[InferenceRequest], float]]:
        """Pop the next batch to execute and its fused-graph duration, or
        None when nothing is runnable."""
        raise NotImplementedError

    # -- dispatch loop -----------------------------------------------------------

    def _per_request_padding(self, requests, duration: float) -> List[float]:
        """Seconds of ``duration`` that are padding waste for each request
        (slots computed past the request's own length).  The base policy
        pads nothing; :class:`~repro.baselines.padded.PaddedServer`
        overrides with its per-phase bucket-ceiling formula."""
        return [0.0] * len(requests)

    def _accept(self, request: InferenceRequest) -> None:
        if self._trace is not None:
            from repro.trace import events as trace_events

            self._trace.instant(
                trace_events.REQUEST_ARRIVAL,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )
        self._enqueue(request)
        # Defer dispatch to the end of the current timestamp so that
        # simultaneously-arriving requests land in one batch rather than the
        # first of them grabbing an idle device alone.
        self._dispatch.kick()

    def _dispatch_idle_devices(self) -> None:
        for device_id, device in enumerate(self.devices):
            if self._device_busy[device_id]:
                continue
            batch = self._next_batch()
            if batch is None:
                continue
            requests, duration = batch
            if not requests:
                raise RuntimeError("batch policy returned an empty batch")
            self._device_busy[device_id] = True
            now = self.loop.now()
            for request in requests:
                request.mark_started(now)
            self.batches_executed += 1
            self.batch_sizes.append(len(requests))
            if self._trace is not None:
                # The device is idle, so the fused graph starts now and its
                # duration is already known: the whole batch span can be
                # recorded at dispatch, with each member's padding share.
                from repro.trace import events as trace_events

                self._trace.span(
                    trace_events.BATCH,
                    trace_events.COMPUTE,
                    now,
                    duration,
                    device_id=device_id,
                    args={
                        "requests": [r.request_id for r in requests],
                        "padding": self._per_request_padding(requests, duration),
                        "batch": len(requests),
                    },
                )
            device.run_for(
                duration,
                lambda reqs=requests, d=device_id: self._batch_done(reqs, d),
            )

    def _batch_done(self, requests: List[InferenceRequest], device_id: int) -> None:
        # One batch per device at a time: its signal fires now.
        self.devices[device_id].retire(self.loop.now())
        self._device_busy[device_id] = False
        for request in requests:
            self._finish_request(request)
        self._dispatch_idle_devices()

    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)
