"""Request processor: unfolding, dependency tracking, subgraph release.

This is the manager submodule of Figure 6 that "tracks the progress of
execution for each request": it unfolds arriving requests into cell graphs,
partitions them into subgraphs, releases subgraphs to the scheduler once
their external dependencies are satisfied, consumes task completions, and
returns a request the moment its last cell finishes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.core.subgraph import Subgraph, partition_into_subgraphs
from repro.core.task import BatchedTask

if TYPE_CHECKING:  # avoids a circular import (models depend on core)
    from repro.models.base import Model


class RequestProcessor:
    """Tracks per-request execution state and feeds the scheduler.

    Parameters
    ----------
    model:
        Supplies ``unfold`` (and optionally ``extend`` for dynamic graphs).
    on_release:
        Called with the subgraphs whose external dependencies are satisfied
        — all those of a fresh partition in one call, one subgraph at a
        time as completions release them; the manager passes the
        scheduler's ``add_subgraph``.
    on_finished:
        Called with each request whose last cell has completed.
    collect_results:
        Whether to materialise ``request.result`` from node outputs
        (real-compute mode only; in pure simulation nodes have no values).
    """

    def __init__(
        self,
        model: Model,
        on_release: Callable[..., None],
        on_finished: Callable[[InferenceRequest], None],
        collect_results: bool = False,
    ):
        self.model = model
        self._on_release = on_release
        self._on_finished = on_finished
        self._collect_results = collect_results
        # Static models keep the base class's no-op ``extend``; completion
        # skips the per-node call for them (checked here, once).
        from repro.models.base import Model  # models import core: late

        self._model_extends = getattr(type(model), "extend", None) is not Model.extend
        self._next_subgraph_id = 0
        # Requests still being served, by id: dropped at finish and at
        # ``forget``, so a served request is not kept alive from here.
        self._live_requests: Dict[int, InferenceRequest] = {}
        self.total_nodes_processed = 0

    # -- arrival ----------------------------------------------------------------

    def add_request(self, request: InferenceRequest) -> List[Subgraph]:
        """Unfold, partition, and release the initially-ready subgraphs."""
        if request.request_id in self._live_requests:
            raise ValueError(f"request {request.request_id} already added")
        graph = CellGraph()
        self.model.unfold(graph, request.payload)
        if len(graph) == 0:
            raise ValueError(
                f"model {self.model.name!r} unfolded request "
                f"{request.request_id} into an empty graph"
            )
        request.graph = graph
        request.remaining_nodes = len(graph)
        self._live_requests[request.request_id] = request

        subgraphs = partition_into_subgraphs(
            graph, request, start_id=self._next_subgraph_id
        )
        self._next_subgraph_id += len(subgraphs)
        request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
        return self._release_fresh(subgraphs)

    def _release_fresh(self, subgraphs: List[Subgraph]) -> List[Subgraph]:
        """Release the subgraphs of a fresh partition that wait on nothing,
        all in one ``on_release`` call: a tree's leaves go to the scheduler
        together, and a leaf's ``external_pending`` is a class constant, so
        no call is made per leaf (DESIGN.md §34)."""
        released = [sg for sg in subgraphs if not sg.external_pending]
        for sg in released:
            sg.released = True
        if released:
            self._on_release(*released)
        return released

    def _release(self, sg: Subgraph) -> None:
        sg.released = True
        self._on_release(sg)

    # -- retirement ---------------------------------------------------------

    def forget(self, request: InferenceRequest) -> None:
        """Stop tracking ``request`` and drop its engine state — graph,
        subgraphs, node count — so that a request turned terminal (the
        manager's retirement, after its ``on_terminal`` hooks) or preempted
        for a re-add (evict-and-restart under memory pressure; the caller
        guarantees no node in flight) holds no reference into the engine.

        A cancelled request's in-flight nodes may still retire: their task
        entries keep those subgraphs, and the graph behind them, alive until
        then — nothing longer, since no graph record refers to a subgraph.
        :meth:`handle_task_completion` skips all bookkeeping for terminal
        requests, so nothing can resurrect or double-finish it."""
        self._live_requests.pop(request.request_id, None)
        request.graph = None
        request.subgraphs = {}
        request.remaining_nodes = 0

    def live_requests(self) -> List[InferenceRequest]:
        """Snapshot of not-yet-terminal tracked requests (id order)."""
        live = self._live_requests
        return [live[rid] for rid in sorted(live)]

    # -- completion -------------------------------------------------------------

    def handle_task_completion(self, task: BatchedTask, now: float) -> List[InferenceRequest]:
        """Update dependencies for a retired task; returns requests that
        finished as a result."""
        affected_requests: Dict[int, InferenceRequest] = {}
        propagating = []
        retired_dead = 0

        # 1. One pass over the entries: each node leaves its subgraph's
        # in-flight count (``uncompleted``; the pin goes with the last one)
        # and sets its byte in the graph's ``done`` bitmap, so a retried
        # task retiring after its optimistic successor is no special case.
        # Both errors are raised before the entry's counters move.  Nodes of
        # cancelled (terminal) requests retire without further bookkeeping:
        # the request was written off whole at cancellation time, nothing
        # below may resurrect it, and nothing makes a request terminal
        # before step 4.
        for entry in task.entries:
            subgraph, node_id = entry
            request = subgraph.request
            terminal = request.terminal
            done = subgraph.graph.done
            if done[node_id] and not terminal:
                raise RuntimeError(f"node {node_id} completed twice")
            uncompleted = subgraph.uncompleted - 1
            unsubmitted = subgraph.unsubmitted
            if uncompleted <= unsubmitted:
                if uncompleted < unsubmitted:
                    raise RuntimeError(
                        f"subgraph {subgraph.subgraph_id}: completion underflow"
                    )
                if not subgraph.sticky:
                    subgraph.pinned = None  # nothing of it is in flight
            subgraph.uncompleted = uncompleted
            if terminal:
                retired_dead += 1
                continue
            done[node_id] = 1
            request.remaining_nodes -= 1
            affected_requests[request.request_id] = request
            # A chain step read by nothing outside its run releases
            # nothing, and an optimistic subgraph advanced its internal
            # readiness at submission: no call for such a node.
            consumers = subgraph.consumers
            if consumers is None or node_id in consumers or not subgraph.optimistic:
                propagating.append(entry)
        self.total_nodes_processed += len(task.entries) - retired_dead

        # 2. Dynamic unfolding: give the model a chance to grow each graph.
        if self._model_extends:
            self._extend_graphs(task.entries)

        # 3. Propagate completions across subgraph boundaries.  External
        # edges never cross requests, so skipping terminal requests here
        # cannot starve anyone else.
        release = self._release
        for subgraph, node_id in propagating:
            consumers = subgraph.consumers
            if consumers is None or node_id in consumers:
                subgraph.propagate(node_id, release)
            # Non-optimistic (unpinned) mode: internal readiness advances on
            # completion instead of on submission.
            if not subgraph.optimistic:
                subgraph.mark_completed_internal([node_id])

        # 4. Finish requests whose graphs are fully executed.
        finished = []
        for request in affected_requests.values():
            if request.remaining_nodes == 0:
                if self._collect_results:
                    request.result = request.graph.collect_results()
                self._live_requests.pop(request.request_id, None)
                finished.append(request)
                self._on_finished(request)
        return finished

    def _extend_graphs(self, entries) -> None:
        """Offer each completed node of a live request to the model's
        ``extend`` hook and partition (and release) what it grew."""
        for subgraph, node_id in entries:
            request, graph = subgraph.request, subgraph.graph
            if request.terminal:
                continue
            new_nodes = self.model.extend(graph, node_id, request.payload)
            if new_nodes:
                request.remaining_nodes += len(new_nodes)
                new_subgraphs = partition_into_subgraphs(
                    graph,
                    request,
                    nodes=new_nodes,
                    start_id=self._next_subgraph_id,
                )
                self._next_subgraph_id += len(new_subgraphs)
                for sg in new_subgraphs:
                    request.subgraphs[sg.subgraph_id] = sg
                self._release_fresh(new_subgraphs)

    # -- introspection ------------------------------------------------------------

    def live_request_count(self) -> int:
        return len(self._live_requests)
