"""Batched tasks: what the scheduler submits to workers.

A task is one batched execution of a single cell type: a list of
``(subgraph, node_id)`` entries gathered from possibly many requests.  In
real-compute mode the task gathers each entry's input rows into contiguous
batched tensors (the paper's "gather" memory copy), runs the cell once, and
scatters the output rows back — all by node id: a node's inputs are
``graph.inputs_of(node_id)`` and its output rows ``graph.outputs[node_id]``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.cell import CellType
from repro.core.cell_graph import ValueInput
from repro.core.subgraph import Entries, Subgraph
from repro.tensor import ops


class BatchedTask:
    """A batch of same-type cell invocations destined for one worker."""

    def __init__(
        self,
        task_id: int,
        cell_type: CellType,
        entries: Entries,
    ):
        if not entries:
            raise ValueError("a batched task needs at least one entry")
        name = cell_type.name
        for subgraph, node_id in entries:
            if subgraph.cell_type_name != name:
                raise ValueError(
                    f"task {task_id}: node {node_id} has type "
                    f"{subgraph.cell_type_name!r}, expected {name!r}"
                )
        self.task_id = task_id
        self.cell_type = cell_type
        self.entries = entries
        # ``subgraphs()`` and the entries list it was derived from: keyed by
        # the list's identity, so the failure path's ``task.entries =
        # filtered`` invalidates the cache without a hook.
        self._subgraphs: Tuple[Subgraph, ...] = ()
        self._subgraphs_of: Optional[list] = None
        self.worker_id: Optional[int] = None
        self.submit_time: Optional[float] = None
        self.finish_time: Optional[float] = None
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
        self.submit_time = None
        self.finish_time = None
        self.duration = None
        self.gather_time = 0.0
        self.migration_time = 0.0

    @property
    def batch_size(self) -> int:
        return len(self.entries)

    def subgraphs(self) -> Tuple[Subgraph, ...]:
        """Distinct subgraphs contributing nodes, in first-seen order."""
        entries = self.entries
        if self._subgraphs_of is not entries:
            seen: Dict[int, Subgraph] = {}
            for subgraph, _ in entries:
                if subgraph.subgraph_id not in seen:
                    seen[subgraph.subgraph_id] = subgraph
            self._subgraphs = tuple(seen.values())
            self._subgraphs_of = entries
        return self._subgraphs

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
