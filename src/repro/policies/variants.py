"""Bundled non-default policies: the §6 ablations as policy swaps.

These express the breakdown runs (`repro.experiments.ablations`) without
forking the engine: priority-off, locality-off, fixed placement and
no-mixing batch formation each replace exactly one seam of the bundle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.policies.base import (
    BatchFormationPolicy,
    Plan,
    PlacementPolicy,
    QueuePriorityPolicy,
)

if TYPE_CHECKING:
    from repro.core.scheduler import CellTypeQueue
    from repro.core.subgraph import Subgraph
    from repro.core.worker import Worker


class FlatQueuePriority(QueuePriorityPolicy):
    """Priority-off ablation: Algorithm 1's three tiers, but the configured
    per-cell-type priorities are ignored — ties break by name alone, so
    decoder-before-encoder (and internal-before-leaf) preferences vanish."""

    name = "flat"

    def select(
        self, queues: Sequence["CellTypeQueue"]
    ) -> Optional["CellTypeQueue"]:
        candidates = [
            q for q in queues if q.num_ready_nodes() >= q.max_batch
        ]
        if not candidates:
            candidates = [
                q
                for q in queues
                if q.running_tasks == 0 and q.num_ready_nodes() > 0
            ]
        if not candidates:
            candidates = [q for q in queues if q.num_ready_nodes() > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda q: q.cell_type.name)


class LongestQueueFirst(QueuePriorityPolicy):
    """Throughput-greedy selection (the E-BATCH-style family): always serve
    the queue with the most ready nodes, skipping the paper's starvation
    tier entirely."""

    name = "longest_queue"

    def select(
        self, queues: Sequence["CellTypeQueue"]
    ) -> Optional["CellTypeQueue"]:
        ready = [q for q in queues if q.num_ready_nodes() > 0]
        if not ready:
            return None
        return max(ready, key=lambda q: (q.num_ready_nodes(), q.cell_type.name))


class UnpinnedPlacement(PlacementPolicy):
    """Locality-off ablation: no subgraph-to-worker affinity.  Successive
    tasks of one subgraph may land on different workers and pay the
    cross-device copy cost; internal dependencies advance only on
    completion (no same-stream FIFO guarantee to rely on)."""

    name = "unpinned"

    def on_admit(self, subgraphs: Sequence["Subgraph"]) -> None:
        for sg in subgraphs:
            sg.optimistic = False


class FixedPlacement(PlacementPolicy):
    """Static placement ablation: each request is hashed to one worker at
    admission and all its subgraphs stay there for life (sticky pin).
    Locality is perfect but load balance is blind — the contrast against
    :class:`~repro.policies.defaults.PinnedPlacement`, whose pins follow
    the idle-driven schedule.  ``Subgraph.commit`` enforces the affinity:
    committing a fixed subgraph to any worker but its home is a bug, not a
    migration, and raises."""

    name = "fixed"

    def __init__(self):
        self._alive: List[int] = []

    def prepare(self, num_workers: int) -> None:
        self._alive = list(range(num_workers))

    def on_device_failed(self, dead_worker_id: int) -> None:
        if dead_worker_id in self._alive:
            self._alive.remove(dead_worker_id)

    def _home(self, request_id: int) -> Optional[int]:
        if not self._alive:
            return None
        return self._alive[request_id % len(self._alive)]

    def on_admit(self, subgraphs: Sequence["Subgraph"]) -> None:
        for sg in subgraphs:
            home = self._home(sg.request.request_id)
            if home is not None:
                sg.sticky = True
                sg.pinned = home

    def retry_target(
        self, task, workers: Sequence["Worker"]
    ) -> Optional["Worker"]:
        for sg, _ in task.plan:
            home = self._home(sg.request.request_id)
            if home is not None and workers[home].alive:
                return workers[home]
        return super().retry_target(task, workers)

    def on_retry(self, task, target: "Worker") -> None:
        for sg, _ in task.plan:
            sg.pinned = target.worker_id


class NoMixFormation(BatchFormationPolicy):
    """Batching-off ablation: a task takes ready nodes from the first
    eligible subgraph only — no cross-request mixing, so the batch size is
    whatever one request has ready (1 for a chain model).  Quantifies how
    much of the win is the mixing itself."""

    name = "no_mix"

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        first = queue.plan(worker.worker_id, 1)
        if not first:
            return first
        sg = first[0][0]
        return [(sg, min(sg.ready_count, queue.max_batch))]
