"""Ideal fixed-structure baseline (paper Figure 15).

For workloads where every request has the *identical* structure, the ideal
comparator hard-codes one dataflow graph matching that structure; each node
executes up to ``max_batch`` corresponding operations, one per request in
the batch, with zero scheduling or merge overhead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.baselines.base import GraphBatchingServer
from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.models.base import Model
from repro.server import ensure_loop
from repro.sim.events import EventLoop


class IdealServer(GraphBatchingServer):
    """Hard-coded graph batching for identical-structure requests.

    The structure is taken from ``template_payload``; submitting a request
    whose cell census differs is an error (the real system would produce
    wrong results silently — we fail loudly instead).
    """

    def __init__(
        self,
        model: Model,
        template_payload,
        max_batch: int = 64,
        num_gpus: int = 1,
        loop: Optional[EventLoop] = None,
        name: str = "Ideal",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        super().__init__(
            ensure_loop(loop), name, model, num_gpus
        )
        self.max_batch = max_batch
        template = CellGraph()
        model.unfold(template, template_payload)
        self._template_census = template.cell_type_census()
        # One kernel per template node, each at the batch size.
        self._node_types = [
            template.cell_type_of(node_id).name for node_id in range(len(template))
        ]
        self._queue: Deque[InferenceRequest] = deque()

    def _enqueue(self, request: InferenceRequest) -> None:
        graph = CellGraph()
        self.model.unfold(graph, request.payload)
        if graph.cell_type_census() != self._template_census:
            raise ValueError(
                "IdealServer received a request whose structure differs from "
                f"the template: {graph.cell_type_census()} vs "
                f"{self._template_census}"
            )
        self._queue.append(request)

    def _next_batch(self) -> Optional[Tuple[List[InferenceRequest], float]]:
        if not self._queue:
            return None
        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]
        duration = sum(
            self.cost_model.kernel_time(cell_name, len(batch))
            for cell_name in self._node_types
        )
        return batch, duration
