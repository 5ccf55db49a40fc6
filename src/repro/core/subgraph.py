"""Subgraphs: the scheduler's unit of queuing, pinning and locality.

The request processor partitions each cell graph into maximal connected
components of same-cell-type nodes (§4.3: "a subgraph contains a single node
or a number of connected nodes ... all nodes of a subgraph must be of the
same cell type").  A subgraph is *released* to the scheduler only once all
its external dependencies are satisfied, so within a subgraph the only
unsatisfied dependencies are internal — which the scheduler resolves
optimistically because tasks pinned to one worker execute in FIFO order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.cell_graph import CellGraph, CellNode, ChainRun, RunNode


class Subgraph:
    """A same-type connected group of one request's cells.

    Scheduling state:

    * ``ready``: nodes whose in-subgraph predecessors have all been
      *submitted* (the optimistic readiness of Algorithm 1's
      ``UpdateNodesDependency``), not yet submitted themselves.
    * ``pinned``: worker id this subgraph is currently bound to; set when a
      task containing its nodes is submitted, cleared when ``inflight``
      returns to zero (paper §4.3, last paragraph).
    """

    def __init__(
        self,
        subgraph_id: int,
        request,  # InferenceRequest; untyped to avoid a circular import
        cell_type_name: str,
        nodes: Sequence[CellNode],
        graph: CellGraph,
    ):
        self.node_ids: Sequence[int] = [n.node_id for n in nodes]
        node_id_set = set(self.node_ids)
        for node in nodes:
            node.subgraph_id = subgraph_id

        # In-subgraph predecessor counts (for optimistic readiness) and the
        # set of unsatisfied external (cross-subgraph) dependency edges
        # (pred_node_id, succ_node_id) gating release.
        self._internal_pending: Dict[int, int] = {}
        self._external_edges = set()
        for node in nodes:
            internal = 0
            for pred in node.predecessors():
                if pred in node_id_set:
                    internal += 1
                elif not graph.node(pred).completed:
                    self._external_edges.add((pred, node.node_id))
            self._internal_pending[node.node_id] = internal

        self.ready: List[int] = [
            nid for nid in self.node_ids if self._internal_pending[nid] == 0
        ]
        self._init_scheduling(subgraph_id, request, cell_type_name, graph)

    def _init_scheduling(
        self, subgraph_id: int, request, cell_type_name: str, graph: CellGraph
    ) -> None:
        """State every subgraph has, however it tracks its ready nodes
        (``node_ids`` and ``_external_edges`` are set by then)."""
        self.subgraph_id = subgraph_id
        self.request = request
        self.cell_type_name = cell_type_name
        self.graph = graph
        self.unsubmitted = len(self.node_ids)
        self.uncompleted = len(self.node_ids)
        self.pinned: Optional[int] = None
        self.inflight = 0
        # A sticky pin survives the inflight count returning to zero —
        # static placement policies (repro.policies.FixedPlacement) use it
        # to keep a subgraph's home for life.
        self.sticky = False
        self.released = False
        # Owning CellTypeQueue while enqueued: receives incremental
        # ready-count deltas and pin transitions so the scheduler never has
        # to rescan the queue (see scheduler.CellTypeQueue).  The queue sets
        # both fields in ``add`` and clears the owner when the subgraph is
        # dropped (exhausted).
        self.owner = None
        self.queue_seq: int = -1
        # Optimistic readiness (advance internal deps at submission, relying
        # on same-worker FIFO order).  The scheduler flips this off when
        # pinning is disabled, in which case internal deps advance only on
        # actual completion.
        self.optimistic = True
        # Device the data of this subgraph currently lives on; used to model
        # the cross-GPU copy cost when pinning is disabled.
        self.last_worker: Optional[int] = None
        # Memory residency (repro.gpu.memory): the device holding this
        # subgraph's reserved hidden-state bytes, or None when nothing is
        # reserved (no memory model, or released).  The manager keeps these
        # in lockstep with the devices' MemoryModel accounting.
        self.resident_on: Optional[int] = None
        self.resident_bytes: int = 0

    # -- release bookkeeping (driven by the request processor) -------------

    @property
    def external_pending(self) -> int:
        return len(self._external_edges)

    def satisfy_external(self, pred_id: int, succ_id: int) -> bool:
        """The external predecessor ``pred_id`` of our node ``succ_id``
        completed; returns True when the subgraph has just become
        releasable.  Edges not tracked (e.g. the predecessor was already
        complete when this subgraph was created) are ignored."""
        self._external_edges.discard((pred_id, succ_id))
        return self.external_pending == 0 and not self.released

    def is_releasable(self) -> bool:
        return self.external_pending == 0 and not self.released

    def dependents(self, nid: int) -> Sequence[int]:
        """Consumers of our node ``nid`` that may lie in another subgraph
        (the request processor skips those that turn out to be ours)."""
        return self.graph.successors(nid)

    # -- scheduling bookkeeping (driven by the scheduler) -------------------

    def ready_count(self) -> int:
        return len(self.ready)

    def take_ready(self, limit: int) -> List[int]:
        """Pop up to ``limit`` ready node ids (FIFO within the subgraph)."""
        if limit <= 0:
            return []
        taken, self.ready = self.ready[:limit], self.ready[limit:]
        if taken and self.owner is not None:
            self.owner.on_ready_delta(self, -len(taken))
        return taken

    def mark_submitted(self, node_ids: Sequence[int]) -> int:
        """Algorithm 1's ``UpdateNodesDependency``: after the given nodes are
        submitted, in-subgraph successors whose predecessors have now all
        been submitted become ready (optimistic mode only).  Returns how many
        became ready."""
        newly_ready = 0
        for nid in node_ids:
            self.unsubmitted -= 1
            if self.optimistic:
                newly_ready += self._advance_internal(nid)
        if self.unsubmitted < 0:
            raise RuntimeError(f"subgraph {self.subgraph_id}: oversubmitted")
        if newly_ready and self.owner is not None:
            self.owner.on_ready_delta(self, newly_ready)
        return newly_ready

    def commit(
        self, count: int, bind: Callable[[Subgraph, int], None], worker_id: int
    ) -> Sequence[CellNode]:
        """Hand ``count`` ready nodes to a task on ``worker_id``: take them,
        ``bind`` (the placement policy's) this subgraph to the worker and
        advance the optimistic dependencies.  The scheduler's one call per
        plan member; returns the nodes taken, in order."""
        node_ids = self.take_ready(count)
        if len(node_ids) != count:
            raise RuntimeError(
                f"subgraph {self.subgraph_id}: planned {count} nodes but "
                f"only {len(node_ids)} were ready"
            )
        node_of = self.graph.node
        nodes = [node_of(nid) for nid in node_ids]
        bind(self, worker_id)
        self.mark_submitted(node_ids)
        return nodes

    def mark_completed_internal(self, node_ids: Sequence[int]) -> int:
        """Non-optimistic mode: advance internal readiness on completion."""
        if self.optimistic:
            raise RuntimeError(
                f"subgraph {self.subgraph_id} is optimistic; internal deps "
                "advance at submission"
            )
        newly_ready = 0
        for nid in node_ids:
            newly_ready += self._advance_internal(nid)
        if newly_ready and self.owner is not None:
            self.owner.on_ready_delta(self, newly_ready)
        return newly_ready

    def _advance_internal(self, nid: int) -> int:
        newly_ready = 0
        for succ in self.graph.successors(nid):
            if succ in self._internal_pending:
                if self.graph.node(succ).subgraph_id == self.subgraph_id:
                    self._internal_pending[succ] -= 1
                    if self._internal_pending[succ] == 0:
                        self.ready.append(succ)
                        newly_ready += 1
        return newly_ready

    def exhausted(self) -> bool:
        """No nodes left to submit — the scheduler drops it from its queue."""
        return self.unsubmitted == 0

    def pin(self, worker_id: int) -> None:
        if self.pinned is not None and self.pinned != worker_id:
            raise RuntimeError(
                f"subgraph {self.subgraph_id} already pinned to worker "
                f"{self.pinned}, cannot pin to {worker_id}"
            )
        newly_pinned = self.pinned is None
        self.pinned = worker_id
        self.inflight += 1
        if newly_pinned and self.owner is not None:
            self.owner.on_pin_changed(self)

    def repin(self, worker_id: Optional[int]) -> None:
        """Forcibly move the pin to another worker (or clear it) without
        touching ``inflight`` — the failure path uses this when the pinned
        device dies and the subgraph's remaining work must migrate to a
        survivor.  Normal scheduling must use :meth:`pin`, which enforces
        single-worker affinity."""
        if self.pinned == worker_id:
            return
        self.pinned = worker_id
        if self.owner is not None:
            self.owner.on_pin_changed(self)

    def task_done(self, completed_nodes: int) -> None:
        """A task containing this subgraph's nodes retired; unpin at zero."""
        self.uncompleted -= completed_nodes
        self.inflight -= 1
        if self.inflight < 0 or self.uncompleted < 0:
            raise RuntimeError(f"subgraph {self.subgraph_id}: completion underflow")
        if self.inflight == 0 and self.pinned is not None and not self.sticky:
            self.pinned = None
            if self.owner is not None:
                self.owner.on_pin_changed(self)

    def __repr__(self) -> str:
        return (
            f"<Subgraph {self.subgraph_id} type={self.cell_type_name!r} "
            f"nodes={len(self.node_ids)} ready={self.ready_count()} "
            f"pinned={self.pinned}>"
        )


class RunSubgraph(Subgraph):
    """The subgraph of a :class:`~repro.core.cell_graph.ChainRun`.

    In a chain the only node that can be ready is the one after the last
    node handed out, so readiness is a cursor rather than per-node
    predecessor counts: ``_cursor`` is the id of the ready node, or None
    while its predecessor has not been submitted (optimistic) or completed
    (non-optimistic) yet, and once the run is handed out whole.
    """

    def __init__(self, subgraph_id: int, request, run: ChainRun, graph: CellGraph):
        self.run = run
        run.subgraph_id = subgraph_id
        self.node_ids = range(run.first_id, run.stop)
        self._external_edges = set()
        for pred in run.producers:  # only step 0 reads from outside the run
            if not graph.node(pred).completed:
                self._external_edges.add((pred, run.first_id))
        self._cursor: Optional[int] = run.first_id
        self._init_scheduling(subgraph_id, request, run.cell_type.name, graph)

    def dependents(self, nid: int) -> Sequence[int]:
        return self.run.consumers.get(nid, ())  # nid + 1 is ours

    def ready_count(self) -> int:
        return 0 if self._cursor is None else 1

    def take_ready(self, limit: int) -> List[int]:
        if limit <= 0 or self._cursor is None:
            return []
        taken, self._cursor = [self._cursor], None
        if self.owner is not None:
            self.owner.on_ready_delta(self, -1)
        return taken

    def commit(
        self, count: int, bind: Callable[[Subgraph, int], None], worker_id: int
    ) -> Sequence[CellNode]:
        nid = self._cursor
        if count != 1 or nid is None:
            return super().commit(count, bind, worker_id)  # 0 nodes, or raises
        nodes = self.graph._nodes  # CellGraph.node without the miss path
        node = nodes.get(nid)
        if node is None:
            node = nodes[nid] = RunNode(nid, self.run)
        self.unsubmitted -= 1
        if self.optimistic and nid + 1 < self.run.stop:
            # The next step is ready the moment this one is submitted: the
            # ready count stays 1, so the queue hears nothing but the pin.
            self._cursor = nid + 1
        else:
            self._cursor = None
            if self.owner is not None:
                self.owner.on_ready_delta(self, -1)
        bind(self, worker_id)
        return (node,)

    def _advance_internal(self, nid: int) -> int:
        if nid + 1 < self.run.stop:
            self._cursor = nid + 1
            return 1
        return 0


def partition_into_subgraphs(
    graph: CellGraph,
    request,
    nodes: Optional[Sequence[CellNode]] = None,
    start_id: int = 0,
) -> List[Subgraph]:
    """Split ``nodes`` (default: the whole graph) into maximal connected
    components of equal cell type.

    Connectivity follows dataflow edges in both directions but only through
    nodes of the same cell type, giving exactly the paper's partition: an
    LSTM chain is one subgraph; Seq2Seq yields one encoder and one decoder
    subgraph; a TreeLSTM yields one subgraph per leaf plus one subgraph of
    all internal nodes.

    When the whole graph is partitioned, each
    :class:`~repro.core.cell_graph.ChainRun` becomes a :class:`RunSubgraph`
    without a look at its nodes — it is a chain of one cell type by
    construction — and only the explicit nodes are searched.  Ids follow
    each subgraph's lowest node id, runs and components alike.
    """
    if nodes is not None:
        pool, runs = list(nodes), ()
    else:
        pool, runs = graph.explicit_nodes(), graph.runs()
    num_runs, next_run = len(runs), 0
    pool_ids = {n.node_id for n in pool}
    visited = set()
    subgraphs: List[Subgraph] = []
    next_id = start_id
    for seed in pool:
        if seed.node_id in visited:
            continue
        while next_run < num_runs and runs[next_run].first_id < seed.node_id:
            subgraphs.append(RunSubgraph(next_id, request, runs[next_run], graph))
            next_id += 1
            next_run += 1
        component = []
        stack = [seed.node_id]
        visited.add(seed.node_id)
        while stack:
            nid = stack.pop()
            node = graph.node(nid)
            component.append(node)
            neighbours = list(node.predecessors()) + list(graph.successors(nid))
            for other_id in neighbours:
                if other_id in visited or other_id not in pool_ids:
                    continue
                other = graph.node(other_id)
                if other.cell_type.name == seed.cell_type.name:
                    visited.add(other_id)
                    stack.append(other_id)
        component.sort(key=lambda n: n.node_id)
        subgraphs.append(
            Subgraph(next_id, request, seed.cell_type.name, component, graph)
        )
        next_id += 1
    for run in runs[next_run:]:
        subgraphs.append(RunSubgraph(next_id, request, run, graph))
        next_id += 1
    return subgraphs
