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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cell_graph import CellGraph, CellNode, ChainRun, TreeRun

# What a task is made of: ``(subgraph, node_id)`` pairs, appended by
# :meth:`Subgraph.commit`.
Entries = List[Tuple["Subgraph", int]]


class Subgraph:
    """A same-type connected group of one request's cells.

    Scheduling state:

    * ``ready``: nodes whose in-subgraph predecessors have all been
      *submitted* (the optimistic readiness of Algorithm 1's
      ``UpdateNodesDependency``), not yet submitted themselves.
    * ``ready_count``: how many nodes are ready — a plain int every class
      keeps current where its readiness moves (the hand-out, the
      completion-ordered advance), so the queue reads it without a call
      (DESIGN.md §37).
    * ``pinned``: worker id this subgraph is currently bound to; set when a
      task containing its nodes is submitted, cleared when the last
      submitted node retires (paper §4.3, last paragraph).  A plain field:
      the queue reads it when it plans, and no pin moves the subgraph's
      entry in the queue's list (DESIGN.md §31).
    * ``inflight``: nodes submitted and not yet completed, derived as
      ``uncompleted - unsubmitted`` (DESIGN.md §30).  A failed task's nodes
      stay in flight until its retry retires them.
    * ``consumers``: the record's table of nodes read from outside this
      subgraph (node id -> consumer ids), or None when every completion
      may release something (generic and leaf subgraphs).  The request
      processor calls :meth:`propagate` only for a node the table names.

    Slotted: a request has one subgraph per tree leaf, so an instance must
    not cost a ``__dict__``.  Every attribute anything sets on a subgraph
    (the manager, the placement policies, the queue) is listed here.
    """

    __slots__ = (
        "subgraph_id", "request", "cell_type_name", "graph",
        # How the generic subgraph tracks its nodes (subclasses have their own).
        "node_ids", "ready", "_internal_pending", "_external_edges",
        "ready_count", "unsubmitted", "uncompleted", "released", "consumers",
        "pinned", "sticky", "optimistic", "last_worker",  # placement policies
        "owner", "queue_seq",  # the CellTypeQueue
        "resident_on", "resident_bytes",  # the manager's memory accounting
        "__weakref__",
    )

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
                elif not graph.done[pred]:
                    self._external_edges.add((pred, node.node_id))
            self._internal_pending[node.node_id] = internal

        self.ready: List[int] = [
            nid for nid in self.node_ids if self._internal_pending[nid] == 0
        ]
        self.ready_count = len(self.ready)
        self.consumers = None
        self._init_scheduling(
            subgraph_id, request, cell_type_name, graph, len(self.node_ids)
        )

    def _init_scheduling(
        self,
        subgraph_id: int,
        request,
        cell_type_name: str,
        graph: CellGraph,
        num_nodes: int,
    ) -> None:
        """State every subgraph has, however it tracks its nodes."""
        self.subgraph_id = subgraph_id
        self.request = request
        self.cell_type_name = cell_type_name
        self.graph = graph
        self.unsubmitted = num_nodes
        self.uncompleted = num_nodes
        self.pinned: Optional[int] = None
        # A sticky pin survives the last in-flight node retiring —
        # static placement policies (repro.policies.FixedPlacement) use it
        # to keep a subgraph's home for life.
        self.sticky = False
        self.released = False
        # Owning CellTypeQueue while enqueued: receives incremental
        # ready-count deltas so the scheduler never has to rescan the queue
        # (see scheduler.CellTypeQueue).  The queue sets both fields in
        # ``add`` and clears the owner when the subgraph is dropped
        # (exhausted).
        self.owner = None
        self.queue_seq: int = -1
        # Optimistic readiness (advance internal deps at submission, relying
        # on same-worker FIFO order).  Unpinned placement turns this off at
        # admission, and internal deps then advance only on actual
        # completion.
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

    @property
    def inflight(self) -> int:
        return self.uncompleted - self.unsubmitted

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

    def propagate(self, nid: int, release: Callable[[Subgraph], None]) -> None:
        """Our node ``nid`` completed: satisfy the external edges it feeds
        and ``release`` each subgraph that thereby became releasable."""
        self._satisfy(nid, self.graph.successors(nid), release)

    def _satisfy(
        self, nid: int, consumers: Sequence[int], release: Callable[[Subgraph], None]
    ) -> None:
        graph, subgraphs = self.graph, self.request.subgraphs
        for succ_id in consumers:
            succ_sg_id = graph.subgraph_id_of(succ_id)
            if succ_sg_id == self.subgraph_id:
                continue  # internal edges are handled by the scheduler
            succ_sg = subgraphs[succ_sg_id]
            if succ_sg.satisfy_external(nid, succ_id):
                release(succ_sg)

    # -- scheduling bookkeeping (driven by the scheduler) -------------------

    def commit(self, count: int, worker_id: int, entries: Entries) -> None:
        """Hand ``count`` ready nodes (FIFO within the subgraph) to a task on
        ``worker_id``: append ``(self, node_id)`` for each to the task's
        ``entries`` and — Algorithm 1's ``UpdateNodesDependency`` — make
        ready the in-subgraph successors whose predecessors have now all been
        submitted (optimistic mode only).  ``CellTypeQueue.commit`` calls it
        once per plan member, after dropping a member whose take is its
        last; no node object is built.

        A queued subgraph's queue hears one net delta, the nodes that became
        ready less the nodes taken, and none when they cancel: the subgraph
        had ready nodes, so it already has its entry (DESIGN.md §31, §32).

        The pin is a store: an optimistic subgraph — the placement leaves it
        so exactly when it binds work to one device (DESIGN.md §27) — binds
        to ``worker_id``, and one pinned to another worker is refused before
        anything is taken.  The pin lasts while ``inflight`` is non-zero:
        the request processor clears it when the last submitted node
        retires."""
        if not 0 < count <= self.ready_count:
            raise self._overdrawn(count)
        if self.optimistic and self.pinned != worker_id:
            if self.pinned is not None:
                raise self._refused(worker_id)
            self.pinned = worker_id
        ready = self.ready
        node_ids = ready[:count]
        del ready[:count]
        entries += [(self, nid) for nid in node_ids]
        self.unsubmitted -= count
        delta = -count
        if self.optimistic:
            for nid in node_ids:
                delta += self._advance_internal(nid)
        if delta:
            self.ready_count += delta
            if self.owner is not None:
                self.owner.on_ready_delta(self, delta)

    def _overdrawn(self, count: int) -> RuntimeError:
        return RuntimeError(
            f"subgraph {self.subgraph_id}: planned {count} nodes but "
            f"only {self.ready_count} were ready"
        )

    def _refused(self, worker_id: int) -> RuntimeError:
        return RuntimeError(
            f"subgraph {self.subgraph_id} already pinned to worker "
            f"{self.pinned}, cannot pin to {worker_id}"
        )

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
        if newly_ready:
            self.ready_count += newly_ready
            if self.owner is not None:
                self.owner.on_ready_delta(self, newly_ready)
        return newly_ready

    def _advance_internal(self, nid: int) -> int:
        """Submit (optimistic) or complete ``nid``'s in-subgraph edges;
        returns how many nodes became ready, which the caller adds to
        ``ready_count`` once."""
        newly_ready = 0
        pending = self._internal_pending  # keyed by exactly our node ids
        for succ in self.graph.successors(nid):
            if succ in pending:
                pending[succ] -= 1
                if pending[succ] == 0:
                    self.ready.append(succ)
                    newly_ready += 1
        return newly_ready

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.subgraph_id} type={self.cell_type_name!r} "
            f"nodes={len(self.node_ids)} ready={self.ready_count} "
            f"pinned={self.pinned}>"
        )


class RunSubgraph(Subgraph):
    """The subgraph of a :class:`~repro.core.cell_graph.ChainRun`, and — one
    step long — of a tree leaf (:class:`LeafSubgraph`).

    In a chain the only node that can be ready is the one after the last
    node handed out, so readiness is a cursor rather than per-node
    predecessor counts: ``_cursor`` is the id of the ready node, or None
    while its predecessor has not been submitted (optimistic) or completed
    (non-optimistic) yet, and once the run is handed out whole;
    ``ready_count`` is 1 exactly when it is not None.  ``_last`` is the id
    of the last node: a leaf's is its own, so building or handing out a
    leaf makes no int.
    """

    __slots__ = ("run", "_cursor", "_last")

    def __init__(self, subgraph_id: int, request, run: ChainRun, graph: CellGraph):
        self.run = run
        run.subgraph_id = subgraph_id
        self.node_ids = range(run.first_id, run.stop)
        self._external_edges = set()
        done = graph.done
        for pred in run.producers:  # only step 0 reads from outside the run
            if not done[pred]:
                self._external_edges.add((pred, run.first_id))
        self._cursor: Optional[int] = run.first_id
        self.ready_count = 1
        self._last = run.stop - 1
        self.consumers = run.consumers
        self._init_scheduling(
            subgraph_id, request, run.cell_type.name, graph, run.steps
        )

    def propagate(self, nid: int, release: Callable[[Subgraph], None]) -> None:
        consumers = self.run.consumers.get(nid)  # nid + 1 is ours
        if consumers:
            self._satisfy(nid, consumers, release)

    def commit(self, count: int, worker_id: int, entries: Entries) -> None:
        """:meth:`Subgraph.commit` for a cursor: one node, and the queue
        hears a delta only when no next step is ready."""
        nid = self._cursor
        if count != 1 or nid is None:
            raise self._overdrawn(count)
        optimistic = self.optimistic
        if optimistic and self.pinned != worker_id:
            if self.pinned is not None:
                raise self._refused(worker_id)
            self.pinned = worker_id
        entries.append((self, nid))
        self.unsubmitted -= 1
        if optimistic and nid < self._last:
            # The next step is ready the moment this one is submitted: the
            # ready count stays 1, so the queue hears nothing.
            self._cursor = nid + 1
        else:
            self._cursor = None
            self.ready_count = 0
            if self.owner is not None:
                self.owner.on_ready_delta(self, -1)

    def _advance_internal(self, nid: int) -> int:
        if nid < self._last:
            self._cursor = nid + 1
            return 1
        return 0


class LeafSubgraph(RunSubgraph):
    """The subgraph of one leaf of a :class:`~repro.core.cell_graph.TreeRun`:
    a run one step long, the leaf itself.

    A leaf reads only its token, so the subgraph is releasable by
    construction (``external_pending`` is a class constant, read without a
    call), and its parent lies in the tree's :class:`TreeSubgraph`, so
    nothing follows the cursor.  ``internal`` is that subgraph, which a
    completed leaf reports to (None: the tree is this one leaf) — the one
    link between them, leaf to internal.
    """

    __slots__ = ("tree", "internal")

    external_pending = 0

    def __init__(
        self,
        subgraph_id: int,
        request,
        tree: TreeRun,
        node_id: int,
        graph: CellGraph,
        internal: Optional[TreeSubgraph] = None,
    ):
        self.tree = tree
        self._cursor = node_id
        self.ready_count = 1
        self._last = node_id
        self.internal = internal
        self.consumers = None  # a completed leaf reports to ``internal``
        self._init_scheduling(subgraph_id, request, tree.leaf_type.name, graph, 1)

    @property
    def node_ids(self) -> Sequence[int]:
        return (self._last,)

    def propagate(self, nid: int, release: Callable[[Subgraph], None]) -> None:
        internal = self.internal
        if internal is not None and internal.leaf_completed():
            release(internal)
        consumers = self.tree.consumers
        if consumers:
            self._satisfy(nid, consumers.get(nid, ()), release)


class TreeSubgraph(Subgraph):
    """The subgraph of all internal nodes of a
    :class:`~repro.core.cell_graph.TreeRun`.

    Every node has one consumer inside the subgraph, its parent, so
    internal readiness is a counter per node — children in this subgraph
    not yet submitted (optimistic) or completed (non-optimistic), indexed
    by position in the tree — and the external edges, one per leaf, are a
    count of leaves still to complete: each leaf completes exactly once.
    Its ready list is the generic one, and so is its hand-out,
    :meth:`Subgraph.commit`.
    """

    __slots__ = ("tree", "_pending", "_leaves_outstanding")

    def __init__(self, subgraph_id: int, request, tree: TreeRun, graph: CellGraph):
        self.tree = tree
        # Filled in by ``_tree_subgraphs``, which is walking the tree anyway.
        self._pending = bytearray(tree.stop - tree.first_id)
        self.ready: List[int] = []
        self.ready_count = 0
        leaves = tree.num_leaves
        self._leaves_outstanding = leaves
        self.consumers = tree.consumers
        self._init_scheduling(
            subgraph_id, request, tree.internal_type.name, graph, leaves - 1
        )

    @property
    def node_ids(self) -> Sequence[int]:
        first = self.tree.first_id
        return [first + i for i, child in enumerate(self.tree.left) if child >= 0]

    @property
    def external_pending(self) -> int:
        return self._leaves_outstanding

    def leaf_completed(self) -> bool:
        """One of the tree's leaves completed; True when that was the last
        and the subgraph has just become releasable."""
        self._leaves_outstanding -= 1
        return self._leaves_outstanding == 0 and not self.released

    def propagate(self, nid: int, release: Callable[[Subgraph], None]) -> None:
        consumers = self.tree.consumers  # the parent is ours
        if consumers:
            self._satisfy(nid, consumers.get(nid, ()), release)

    def _advance_internal(self, nid: int) -> int:
        tree = self.tree
        parent = tree.parent[nid - tree.first_id]
        if parent < 0:
            return 0
        pending = self._pending
        pending[parent] -= 1
        if pending[parent]:
            return 0
        self.ready.append(tree.first_id + parent)
        return 1


def _tree_subgraphs(
    tree: TreeRun, request, graph: CellGraph, next_id: int
) -> List[Subgraph]:
    """The partition of a tree, in lowest-node-id order: one
    :class:`LeafSubgraph` per leaf and, unless the tree is a single leaf,
    one :class:`TreeSubgraph` where the first internal node stands, which
    every leaf points at."""
    left, right, first = tree.left, tree.right, tree.first_id
    subgraph_ids = tree.subgraph_ids
    subgraphs: List[Subgraph] = []
    internal = None
    for index, child in enumerate(left):
        if child < 0:
            subgraphs.append(
                LeafSubgraph(next_id, request, tree, first + index, graph, internal)
            )
            subgraph_ids[index] = next_id
            next_id += 1
            continue
        if internal is None:
            internal = TreeSubgraph(next_id, request, tree, graph)
            for leaf in subgraphs:  # the leaves before the first internal node
                leaf.internal = internal
            subgraphs.append(internal)
            next_id += 1
        subgraph_ids[index] = internal.subgraph_id
        internal_children = (left[child] >= 0) + (left[right[index]] >= 0)
        if internal_children:
            internal._pending[index] = internal_children
        else:
            internal.ready.append(first + index)
            internal.ready_count += 1
    return subgraphs


def _run_subgraphs(run, request, graph: CellGraph, next_id: int) -> List[Subgraph]:
    if isinstance(run, TreeRun):
        return _tree_subgraphs(run, request, graph, next_id)
    return [RunSubgraph(next_id, request, run, graph)]


def partition_into_subgraphs(
    graph: CellGraph,
    request,
    nodes: Optional[Sequence[CellNode]] = None,
    start_id: int = 0,
) -> List[Subgraph]:
    """Split the graph into maximal connected components of equal cell
    type — or, given ``nodes``, just those explicit nodes (the ones a
    ``Model.extend`` has just added).

    Connectivity follows dataflow edges in both directions but only through
    nodes of the same cell type, giving exactly the paper's partition: an
    LSTM chain is one subgraph; Seq2Seq yields one encoder and one decoder
    subgraph; a TreeLSTM yields one subgraph per leaf plus one subgraph of
    all internal nodes.

    Each :class:`~repro.core.cell_graph.ChainRun` becomes a
    :class:`RunSubgraph` and each :class:`~repro.core.cell_graph.TreeRun`
    its leaf and internal subgraphs without a look at their nodes — their
    shape is known by construction — and only the explicit nodes are
    searched.  Ids follow each subgraph's lowest node id, records and
    components alike.
    """
    if nodes is None:
        pool, runs = graph.explicit_nodes(), graph.runs()
    else:
        pool, runs = {node.node_id: node for node in nodes}, ()
    num_runs, next_run = len(runs), 0
    visited = set()
    subgraphs: List[Subgraph] = []  # the next id is start_id + len(subgraphs)
    for seed_id in pool:
        if seed_id in visited:
            continue
        while next_run < num_runs and runs[next_run].first_id < seed_id:
            subgraphs += _run_subgraphs(
                runs[next_run], request, graph, start_id + len(subgraphs)
            )
            next_run += 1
        name = pool[seed_id].cell_type.name
        component = []
        stack = [seed_id]
        visited.add(seed_id)
        while stack:
            nid = stack.pop()
            component.append(nid)
            for other_id in (*pool[nid].predecessors(), *graph.successors(nid)):
                if other_id in visited or other_id not in pool:
                    continue
                if pool[other_id].cell_type.name == name:
                    visited.add(other_id)
                    stack.append(other_id)
        component.sort()
        subgraph_id = start_id + len(subgraphs)
        subgraphs.append(
            Subgraph(subgraph_id, request, name, [pool[i] for i in component], graph)
        )
    for run in runs[next_run:]:
        subgraphs += _run_subgraphs(run, request, graph, start_id + len(subgraphs))
    return subgraphs
