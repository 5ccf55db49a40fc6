"""Timeout-based batching variant of the padding baseline.

The paper's baselines deliberately do *not* use timeouts: "we do not use
explicit timeouts when accumulating requests to form a batch; rather, even
if it's not full, a batch can start execution as long as some GPU device is
idle and it is the batch's turn ... Additionally, we found that this
strategy achieves lower latency than any configuration of the timeout-based
strategy" (§7.1).

This module implements the timeout-based strategy so that claim can be
reproduced (see ``benchmarks/test_timeout_ablation.py``): a bucket's batch
is dispatched only once it is full **or** its oldest request has waited
``timeout`` seconds — the policy Clipper-style servers use.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.padded import PaddedServer
from repro.core.request import InferenceRequest


class TimeoutPaddedServer(PaddedServer):
    """Padding + bucketing, but batches wait for ``timeout`` or fullness."""

    def __init__(self, *args, timeout: float = 2e-3, **kwargs):
        if timeout < 0:
            raise ValueError("timeout must be non-negative")
        kwargs.setdefault("name", f"Padded(timeout={timeout * 1e3:g}ms)")
        super().__init__(*args, **kwargs)
        self.timeout = timeout

    # -- policy override -------------------------------------------------------

    def _enqueue(self, request: InferenceRequest) -> None:
        super()._enqueue(request)
        # Arrange a wake-up for when this request's timeout expires, since a
        # bucket below max batch is not dispatchable until then.
        self.loop.call_after(self.timeout, self._dispatch.fire)

    def _next_batch(self) -> Optional[Tuple[List[InferenceRequest], float]]:
        """Dispatch only full buckets, or buckets whose head timed out."""
        if not self._rr_ring:
            return None
        now = self.loop.now()
        n = len(self._rr_ring)
        for offset in range(n):
            key = self._rr_ring[(self._rr_index + offset) % n]
            queue = self._buckets[key]
            if not queue:
                continue
            full = len(queue) >= self.max_batch
            expired = now - queue[0].arrival_time >= self.timeout
            if full or expired:
                self._rr_index = (self._rr_index + offset + 1) % n
                batch = [
                    queue.popleft()
                    for _ in range(min(self.max_batch, len(queue)))
                ]
                return batch, self._duration(key, batch)
        return None
