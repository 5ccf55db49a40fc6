"""The paper's default policies — Algorithm 1, verbatim.

Each class transplants the exact logic the scheduler/manager hard-wired
before the policy layer existed; fixed-seed runs through these defaults
are bit-identical to that engine (``tests/test_policies.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.policies.base import (
    BatchFormationPolicy,
    Plan,
    PlacementPolicy,
    QueuePriorityPolicy,
)

if TYPE_CHECKING:
    from repro.core.scheduler import CellTypeQueue
    from repro.core.worker import Worker


class PaperQueuePriority(QueuePriorityPolicy):
    """Algorithm 1 lines 5-10: (a) cell types with at least a full maximum
    batch of ready nodes; else (b) cell types with ready nodes and no
    running tasks; else (c) any cell type with ready nodes.  Ties break by
    configured priority (decoder > encoder, internal > leaf), then by name
    for determinism."""

    name = "paper"

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
        return max(
            candidates, key=lambda q: (q.config.priority, q.cell_type.name)
        )


class PinnedPlacement(PlacementPolicy):
    """§4.3 locality: the first task binds a subgraph to its worker; until
    its in-flight count returns to zero, follow-up tasks are only eligible
    there — so FIFO stream order resolves internal dependencies
    optimistically and no hidden state ever crosses devices."""

    name = "pinned"

    def on_retry(self, task, target: "Worker") -> None:
        # The retry may land on a survivor other than the dead original;
        # drag the affected subgraphs' pins along so their queued remainder
        # stays on one device.
        for sg, _ in task.plan:
            sg.pinned = target.worker_id


class PaperBatchFormation(BatchFormationPolicy):
    """Algorithm 1's ``FormBatchedTask``: scan eligible subgraphs (ready
    nodes, unpinned or pinned to the requesting worker) in arrival order,
    taking ready nodes until the maximum batch size is reached.

    Reads the queue's list of subgraphs with ready nodes, sorted by arrival
    (:meth:`~repro.core.scheduler.CellTypeQueue.plan`, O(batch + entries
    pinned elsewhere + stale entries)).  The full FIFO scan it replaced (O(queue)) is the oracle in
    ``tests/oracles/bruteforce_scheduler.py``; both produce bit-identical
    plans.
    """

    name = "paper"

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        return queue.plan(worker.worker_id, queue.max_batch)
