"""Every arrival its own loop event: the arrival path before DESIGN.md §39.

``schedule_every_arrival(server)`` gives ``server`` the ``submit`` it had
when each submitted request was pushed onto the event loop at once, under
the next sequence number, beside a heap of the submitted requests keyed
the same way that each firing pops.  ``src/`` now keeps the future
arrivals in the server and arms only the earliest under a sequence number
reserved at submit; ``tests/test_arrival_order.py`` runs the same submits
against both and demands the same fired events and the same outcomes.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Optional

from repro.core.request import InferenceRequest


def schedule_every_arrival(server):
    """Replace ``server.submit`` with the eager one; returns the server."""
    loop = server.loop
    pending: List[tuple] = []

    def arrive() -> None:
        server._accept(heapq.heappop(pending)[2])

    def submit(
        payload: Any,
        arrival_time: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> InferenceRequest:
        now = loop.now()
        when = now if arrival_time is None else arrival_time
        if not now <= when < math.inf:
            if not math.isfinite(when):
                raise ValueError(f"arrival time must be finite, got {when}")
            raise ValueError(f"arrival time {when} is in the past (now={now})")
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError(f"deadline must be positive and finite, got {deadline}")
        request = InferenceRequest(server._next_request_id, payload, when)
        if deadline is not None:
            request.deadline = when + deadline
        server._next_request_id += 1
        event = loop.call_at(when, arrive)
        heapq.heappush(pending, (event.time, event.seq, request))
        return request

    server.submit = submit
    return server
