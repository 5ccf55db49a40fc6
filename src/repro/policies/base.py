"""The three policy interfaces and the bundle that groups them.

Policies are deliberately thin protocols over the scheduler's *mechanism*
(queues, ready counters, the ready list, pin bookkeeping): a policy
decides, the scheduler/manager machinery executes.  Every instance is
per-server state — construct a fresh bundle per server, never share one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # typing only — core imports this package at runtime
    from repro.core.scheduler import CellTypeQueue
    from repro.core.subgraph import Subgraph
    from repro.core.task import BatchedTask
    from repro.core.worker import Worker

Plan = List[Tuple["Subgraph", int]]


class QueuePriorityPolicy:
    """Which cell-type queue does the next scheduling round serve?"""

    name = "abstract"

    def select(
        self, queues: Sequence["CellTypeQueue"]
    ) -> Optional["CellTypeQueue"]:
        """Pick the queue to batch from, or None when nothing is ready.
        Must be deterministic in the queues' observable state."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PlacementPolicy:
    """Where a subgraph's work runs, and what moving it costs.

    A subgraph's ``optimistic`` flag, true from construction, tells the
    request machinery whether internal dependencies may advance at
    *submission* (safe only when every task of a subgraph lands on one
    device, whose FIFO stream order then satisfies them — the point of
    pinning) or must wait for completion.  It is also the whole binding
    decision: ``Subgraph.commit`` pins an optimistic subgraph to the worker
    its nodes go to and leaves any other unpinned.  Only a placement that
    turns it off writes it (``on_admit``).
    """

    name = "abstract"

    # Bytes of live state per subgraph hop (h and c vectors at h=1024,
    # fp32) — what a cross-device migration must copy.
    HIDDEN_STATE_BYTES = 2 * 1024 * 4

    def prepare(self, num_workers: int) -> None:
        """Called once by the manager before serving starts."""

    def on_admit(self, subgraphs: Sequence["Subgraph"]) -> None:
        """Released subgraphs enter the scheduler's queues — all a request
        releases at once, every leaf of a tree in one call."""

    def hop_cost(self, worker: "Worker") -> float:
        """Cross-device copy cost of one subgraph's live state moving to
        ``worker``: the manager charges it to a task for every member whose
        state sits on a different GPU."""
        return worker.device.copy_cost(self.HIDDEN_STATE_BYTES)

    def retry_target(
        self, task: "BatchedTask", workers: Sequence["Worker"]
    ) -> Optional["Worker"]:
        """Deterministic retry placement: the original worker when it still
        lives, else the first surviving worker after it in id order."""
        origin = task.worker_id if task.worker_id is not None else 0
        n = len(workers)
        for offset in range(n):
            worker = workers[(origin + offset) % n]
            if worker.alive:
                return worker
        return None

    def on_retry(self, task: "BatchedTask", target: "Worker") -> None:
        """A failed task is about to re-run on ``target`` — fix up any
        placement state (pins) before submission."""

    def on_device_failed(self, dead_worker_id: int) -> None:
        """A device died — drop it from any placement state the policy
        keeps, so future admissions avoid it."""

    def replacement_for(
        self, dead_worker_id: int, workers: Sequence["Worker"]
    ) -> Optional["Worker"]:
        """Survivor that inherits a dead device's queued work: the first
        alive worker after it in id order."""
        n = len(workers)
        for offset in range(1, n + 1):
            worker = workers[(dead_worker_id + offset) % n]
            if worker.alive:
                return worker
        return None

    def repin_target(
        self, sg: "Subgraph", dead_worker_id: int, replacement: Optional[int]
    ) -> Optional[int]:
        """New pin for a queued subgraph stranded on a dead device."""
        return replacement

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class BatchFormationPolicy:
    """Which ready nodes of the chosen queue form the next batched task.

    A policy that needs the engine behind the queues (its clock, SLA,
    device models, a wake handle) also subclasses
    :class:`~repro.extension.EngineExtension` and the manager installs it."""

    name = "abstract"

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        """Plan (without committing) ``(subgraph, node_count)`` takes, up to
        the queue's max batch: distinct subgraphs, each with at least that
        many nodes ready, every count at least 1 (nothing to take is the
        empty plan).  Planning must leave the queue's observable state
        unchanged — the caller may decline the plan under the min-batch
        rule.  ``CellTypeQueue.plan(worker_id, budget)`` is the read-only
        primitive to build on: it returns the eligible subgraphs in arrival
        order and mutates nothing, so there is no pop to undo."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PolicyBundle:
    """One policy of each kind, as the scheduler and manager consume them."""

    def __init__(
        self,
        priority: QueuePriorityPolicy,
        placement: PlacementPolicy,
        formation: BatchFormationPolicy,
    ):
        self.priority = priority
        self.placement = placement
        self.formation = formation

    def names(self) -> dict:
        """Registry names of the three policies (spec serialisation)."""
        return {
            "priority": self.priority.name,
            "placement": self.placement.name,
            "formation": self.formation.name,
        }

    def __repr__(self) -> str:
        return (
            f"<PolicyBundle priority={self.priority.name!r} "
            f"placement={self.placement.name!r} "
            f"formation={self.formation.name!r}>"
        )
