"""Batched tasks: what the scheduler submits to workers.

A task is one batched execution of a single cell type: a list of
``(subgraph, node_id)`` entries gathered from possibly many requests.  In
real-compute mode the task gathers each entry's input rows into contiguous
batched tensors (the paper's "gather" memory copy), runs the cell once, and
scatters the output rows back — all by node id: a node's inputs are
``graph.inputs_of(node_id)`` and its output rows ``graph.outputs[node_id]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.cell import CellType
from repro.core.cell_graph import ValueInput
from repro.core.subgraph import Entries, Subgraph
from repro.tensor import ops

if TYPE_CHECKING:  # typing only — policies are imported by core at runtime
    from repro.policies.base import Plan
    from repro.sim.events import Event


class BatchedTask:
    """A batch of same-type cell invocations destined for one worker.

    ``plan`` is the scheduler's plan the task was committed from:
    ``(subgraph, node count)`` per distinct member, in the order the
    members' entries appear.  Submission and the extensions walk the
    members from it; no stage rebuilds them from the entries.  A plan's
    members were checked to be of the task's cell type by the queue that
    handed them out (:meth:`~repro.core.scheduler.CellTypeQueue.commit`);
    a task built from bare entries checks its members here.
    """

    def __init__(
        self,
        task_id: int,
        cell_type: CellType,
        entries: Entries,
        plan: Optional[Plan] = None,
    ):
        if not entries:
            raise ValueError("a batched task needs at least one entry")
        if plan is None:
            plan = _plan_of(entries)
            name = cell_type.name
            for subgraph, _ in plan:
                if subgraph.cell_type_name != name:
                    node_id = next(nid for sg, nid in entries if sg is subgraph)
                    raise ValueError(
                        f"task {task_id}: node {node_id} has type "
                        f"{subgraph.cell_type_name!r}, expected {name!r}"
                    )
        self.task_id = task_id
        self.cell_type = cell_type
        self.entries = entries
        self.plan = plan
        self.batch_size = len(entries)
        self.worker_id: Optional[int] = None
        # The worker's signal for this execution: the event that reports its
        # retire time (cancelled if the device dies first).
        self.signal: Optional[Event] = None
        self.duration: Optional[float] = None
        # How much of ``duration`` went to the gather copy and to the
        # cross-device migration copy (set by the worker at submission;
        # consumed by the critical-path trace attribution).
        self.gather_time = 0.0
        self.migration_time = 0.0
        # Retry bookkeeping: 0 for the original submission, incremented by
        # the manager for each re-submission after a failed execution.
        self.attempt = 0

    def prepare_retry(self) -> None:
        """Reset per-execution state so the task can be submitted again."""
        self.attempt += 1
        self.worker_id = None
        self.signal = None
        self.duration = None
        self.gather_time = 0.0
        self.migration_time = 0.0

    def retain(self, entries: Entries) -> None:
        """Narrow the task to ``entries``, a subset of its own — the
        failure path drops the terminal requests' share before a retry.
        The plan and the batch size follow."""
        self.entries = entries
        self.plan = _plan_of(entries)
        self.batch_size = len(entries)

    # -- real-compute execution ---------------------------------------------

    def execute(self) -> None:
        """Gather -> batched compute -> scatter (real-compute mode).

        Requires every NodeOutput dependency to have been executed already;
        the scheduler guarantees this via FIFO submission order on a pinned
        worker plus release-after-external-completion.
        """
        cell, entries = self.cell_type, self.entries
        inputs = [subgraph.graph.inputs_of(nid) for subgraph, nid in entries]
        batched_inputs: Dict[str, np.ndarray] = {}
        for name in cell.input_names:
            rows = []
            for (subgraph, nid), node_inputs in zip(entries, inputs):
                ref = node_inputs[name]
                if isinstance(ref, ValueInput):
                    rows.append(np.asarray(ref.value))
                    continue
                produced = subgraph.graph.outputs.get(ref.node_id)
                if produced is None:
                    raise RuntimeError(
                        f"task {self.task_id}: node {nid} input {name!r} "
                        f"depends on unexecuted node {ref.node_id}"
                    )
                rows.append(np.asarray(produced[ref.output]))
            batched_inputs[name] = ops.stack_rows(rows)
        batched_outputs = cell.compute(batched_inputs)
        names = cell.output_names
        for i, (subgraph, nid) in enumerate(entries):
            subgraph.graph.outputs[nid] = {name: batched_outputs[name][i] for name in names}

    def __repr__(self) -> str:
        return (
            f"<BatchedTask {self.task_id} type={self.cell_type.name!r} "
            f"batch={self.batch_size} worker={self.worker_id}>"
        )


def _plan_of(entries: Entries) -> Plan:
    """The ``(subgraph, node count)`` plan behind ``entries``, members in
    first-seen order."""
    counts: Dict[Subgraph, int] = {}
    for subgraph, _ in entries:
        counts[subgraph] = counts.get(subgraph, 0) + 1
    return list(counts.items())
