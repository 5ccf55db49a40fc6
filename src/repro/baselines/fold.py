"""Dynamic graph-merge server (the TensorFlow Fold / DyNet baseline).

These systems "first generate the dataflow graph for each input and then
attempt to merge all dataflow graphs into one graph by combining nodes
corresponding to the same operation while maintaining the data dependency"
(§8).  Modelled here:

* when a device is idle, up to ``max_requests`` queued requests (FIFO)
  form a batch;
* each request's cell graph is unfolded and the merged graph executes
  level-synchronously: at each depth level, same-type cells across all
  requests in the batch fuse into one batched kernel — so batch sizes
  shrink toward the top of the trees (§7.5);
* merging costs ``merge_overhead_per_request``.  TensorFlow Fold's merge is
  large and (after the paper's optimisation) overlapped with execution
  (``overlap_merge=True`` makes batch time ``max(compute, merge)``);
  DyNet's merge is small but serial (``overlap_merge=False`` adds it).

The two published baselines are provided as constructors
:meth:`FoldServer.tensorflow_fold` and :meth:`FoldServer.dynet`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.baselines.base import GraphBatchingServer
from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.models.base import Model
from repro.server import ensure_loop
from repro.sim.events import EventLoop


def level_census(graph: CellGraph) -> Dict[int, Dict[str, int]]:
    """Per-depth-level, per-cell-type node counts.

    A node's level is 1 + the maximum level of its predecessors (sources are
    level 0) — the schedule both Fold and DyNet use when batching a merged
    graph.
    """
    levels: List[int] = []
    census: Dict[int, Dict[str, int]] = {}
    # Node ids are handed out in topological order (every add_* validates
    # that all predecessors already exist), so one pass in id order suffices.
    for node_id in range(len(graph)):
        preds = graph.predecessors(node_id)
        level = 1 + max(levels[p] for p in preds) if preds else 0
        levels.append(level)
        by_type = census.setdefault(level, {})
        name = graph.cell_type_of(node_id).name
        by_type[name] = by_type.get(name, 0) + 1
    return census


class FoldServer(GraphBatchingServer):
    """Graph batching via dynamic dataflow-graph merging."""

    def __init__(
        self,
        model: Model,
        max_requests: int = 64,
        num_gpus: int = 1,
        loop: Optional[EventLoop] = None,
        merge_overhead_per_request: float = 0.0,
        overlap_merge: bool = False,
        per_level_overhead: float = 20e-6,
        name: str = "Fold",
    ):
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        super().__init__(
            ensure_loop(loop), name, model, num_gpus
        )
        self.max_requests = max_requests
        self.merge_overhead_per_request = merge_overhead_per_request
        self.overlap_merge = overlap_merge
        self.per_level_overhead = per_level_overhead
        self._queue: Deque[InferenceRequest] = deque()

    # -- published configurations ------------------------------------------------

    @classmethod
    def tensorflow_fold(cls, model: Model, **kwargs) -> "FoldServer":
        """TF Fold v0.0.1 per §7.5: very large per-request graph
        construction/merge cost, overlapped with execution after the
        paper's optimisation (imperfectly, due to Python threading — folded
        into the overhead constant)."""
        kwargs.setdefault("merge_overhead_per_request", 1.2e-3)
        kwargs.setdefault("overlap_merge", True)
        kwargs.setdefault("name", "TF Fold")
        return cls(model, **kwargs)

    @classmethod
    def dynet(cls, model: Model, **kwargs) -> "FoldServer":
        """DyNet v2.0 per §7.5: much smaller merge overhead, not overlapped."""
        kwargs.setdefault("merge_overhead_per_request", 0.35e-3)
        kwargs.setdefault("overlap_merge", False)
        kwargs.setdefault("name", "DyNet")
        return cls(model, **kwargs)

    # -- policy --------------------------------------------------------------------

    def _enqueue(self, request: InferenceRequest) -> None:
        self._queue.append(request)

    def _next_batch(self) -> Optional[Tuple[List[InferenceRequest], float]]:
        if not self._queue:
            return None
        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_requests, len(self._queue)))
        ]
        return batch, self._duration(batch)

    def _duration(self, batch: List[InferenceRequest]) -> float:
        # Merge the per-request graphs level by level.
        merged: Dict[int, Dict[str, int]] = {}
        for request in batch:
            graph = CellGraph()
            self.model.unfold(graph, request.payload)
            for level, by_type in level_census(graph).items():
                slot = merged.setdefault(level, {})
                for name, count in by_type.items():
                    slot[name] = slot.get(name, 0) + count
        compute = 0.0
        for level in sorted(merged):
            for cell_name, count in merged[level].items():
                compute += self.cost_model.kernel_time(cell_name, count)
            compute += self.per_level_overhead
        merge = self.merge_overhead_per_request * len(batch)
        if self.overlap_merge:
            return max(compute, merge)
        return compute + merge
