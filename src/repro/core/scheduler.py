"""The batching scheduler — the paper's Algorithm 1.

One :class:`CellTypeQueue` per cell type holds released subgraphs in FIFO
order.  ``schedule(worker)`` picks a cell type via the bundle's
:class:`~repro.policies.QueuePriorityPolicy` (the paper's three-tier
criterion by default), then ``_batch`` forms (via the bundle's
:class:`~repro.policies.BatchFormationPolicy`) and submits up to
``MaxTasksToSubmit`` batched tasks to that worker, binding the touched
subgraphs through the :class:`~repro.policies.PlacementPolicy` — pinned by
default, so dependent follow-up tasks stay on the same device (whose FIFO
stream order then satisfies their dependencies without waiting for
completions).

Hot-path complexity
-------------------
The scheduling decision itself must be cheap relative to a kernel launch
(the whole point of fine-grained batching), so the queue keeps its state
incrementally instead of rescanning:

* ``num_ready_nodes()`` is a counter read.  Subgraphs report ready-count
  deltas to their owning queue (``on_ready_delta``) whenever nodes are
  taken, submitted, or completed.
* ``_form_batched_task`` walks *eligible* subgraphs only — those with ready
  nodes that are unpinned or pinned to the requesting worker — via lazily
  maintained min-heaps keyed by arrival order, so the scan order is
  bit-identical to the original full-queue FIFO scan.

The original O(queue) scans are retained as the brute-force reference
(``BatchingConfig(fast_path=False)``); the equivalence test in
``tests/test_scheduler_equivalence.py`` holds the two bit-identical.
"""

from __future__ import annotations

import heapq
from collections import Counter, OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.cell import CellType
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.core.subgraph import Subgraph
from repro.core.task import BatchedTask
from repro.policies import PolicyBundle
from repro.policies.defaults import PaperBatchFormation
from repro.trace import events as trace_events


class CellTypeQueue:
    """Scheduler state for one cell type.

    ``subgraphs`` is the authoritative FIFO (insertion-ordered) of queued
    subgraphs.  On top of it the queue maintains:

    * ``_ready_total`` — sum of ``ready_count()`` over queued subgraphs,
      updated by deltas from :meth:`on_ready_delta`.
    * ``_heaps`` — one lazy min-heap of ``(queue_seq, subgraph)`` entries
      per *bucket* (``None`` for unpinned, a worker id for pinned), holding
      every subgraph that may have ready nodes in that bucket.  Entries are
      never deleted eagerly; staleness is detected when popped by checking
      the subgraph's live state.  ``_heap_entries`` counts how many entries
      each subgraph currently has in each bucket's heap so that state
      transitions never push duplicates.
    """

    def __init__(
        self, cell_type: CellType, config: CellTypeConfig, fast_path: bool = True
    ):
        self.cell_type = cell_type
        self.config = config
        self.fast_path = fast_path
        self.subgraphs: "OrderedDict[int, Subgraph]" = OrderedDict()
        self.running_tasks = 0
        self._ready_total = 0
        self._next_seq = 0
        self._heaps: Dict[Optional[int], List[Tuple[int, Subgraph]]] = {}
        self._heap_entries: Dict[Tuple[int, Optional[int]], int] = {}

    # -- ready-node accounting ---------------------------------------------

    def num_ready_nodes(self) -> int:
        if self.fast_path:
            return self._ready_total
        return self.recount_ready_nodes()

    def recount_ready_nodes(self) -> int:
        """Brute-force reference: full rescan of the queue."""
        return sum(sg.ready_count() for sg in self.subgraphs.values())

    def add(self, sg: Subgraph) -> None:
        sg.owner = self
        sg.queue_seq = self._next_seq
        self._next_seq += 1
        self.subgraphs[sg.subgraph_id] = sg
        self._ready_total += sg.ready_count()
        if sg.ready_count() > 0:
            self._register(sg)

    def remove(self, sg: Subgraph) -> None:
        """Drop an exhausted subgraph (no nodes left to submit)."""
        self.subgraphs.pop(sg.subgraph_id, None)
        self._ready_total -= sg.ready_count()
        sg.owner = None

    # -- notifications from Subgraph -----------------------------------------

    def on_ready_delta(self, sg: Subgraph, delta: int) -> None:
        """``sg``'s ready count changed by ``delta`` while queued here."""
        self._ready_total += delta
        if delta > 0 and sg.ready_count() > 0:
            self._register(sg)
        # delta < 0 (or ready now 0): the heap entry goes stale and is
        # discarded lazily when popped.

    def on_pin_changed(self, sg: Subgraph) -> None:
        """``sg`` was pinned or unpinned: its eligibility bucket moved."""
        if sg.ready_count() > 0:
            self._register(sg)
        # The entry under the previous bucket is now stale; lazy cleanup.

    def _register(self, sg: Subgraph) -> None:
        """Ensure ``sg`` has an entry in its current bucket's heap."""
        bucket = sg.pinned
        key = (sg.subgraph_id, bucket)
        if self._heap_entries.get(key, 0) == 0:
            heapq.heappush(
                self._heaps.setdefault(bucket, []), (sg.queue_seq, sg)
            )
            self._heap_entries[key] = 1

    def _pop_entry(self, bucket: Optional[int]) -> Optional[Subgraph]:
        """Pop the heap entry for ``bucket``; caller validates liveness."""
        heap = self._heaps.get(bucket)
        if not heap:
            return None
        _, sg = heapq.heappop(heap)
        key = (sg.subgraph_id, bucket)
        count = self._heap_entries.get(key, 0) - 1
        if count > 0:
            self._heap_entries[key] = count
        else:
            self._heap_entries.pop(key, None)
        return sg

    def _entry_live(self, sg: Subgraph, bucket: Optional[int]) -> bool:
        return (
            sg.owner is self
            and sg.ready_count() > 0
            and sg.pinned == bucket
        )

    def pop_eligible(self, worker_id: int) -> Optional[Subgraph]:
        """Pop the first subgraph (by arrival order) with ready nodes that
        ``worker_id`` may execute: unpinned, or pinned to that worker.
        Stale heap entries encountered along the way are discarded."""
        while True:
            unpinned = self._heaps.get(None)
            pinned = self._heaps.get(worker_id)
            have_u = bool(unpinned)
            have_p = bool(pinned)
            if not have_u and not have_p:
                return None
            if have_u and (not have_p or unpinned[0][0] < pinned[0][0]):
                bucket = None
            else:
                bucket = worker_id
            sg = self._pop_entry(bucket)
            if sg is not None and self._entry_live(sg, bucket):
                return sg

    def reinsert(self, sg: Subgraph) -> None:
        """Put a popped-but-still-eligible subgraph back in its bucket's
        heap (its ``queue_seq`` restores the original FIFO position)."""
        if sg.owner is self and sg.ready_count() > 0:
            self._register(sg)

    def __repr__(self) -> str:
        return (
            f"<CellTypeQueue {self.cell_type.name!r} "
            f"subgraphs={len(self.subgraphs)} running={self.running_tasks}>"
        )


class Scheduler:
    """Forms batched tasks and assigns them to workers (paper Algorithm 1).

    The three *decisions* — which queue to serve, which nodes to batch,
    where a subgraph's work binds — live in a
    :class:`~repro.policies.PolicyBundle`; this class owns the mechanism
    (queues, counters, task construction, accounting).  When no bundle is
    given, the paper's defaults are derived from ``config`` (pinning and
    fast-path flags), reproducing the pre-policy-layer engine bit for bit.
    """

    def __init__(
        self,
        config: BatchingConfig,
        submit: Callable[[BatchedTask, "object"], None],
        policies: Optional[PolicyBundle] = None,
    ):
        self.config = config
        self.fast_path = getattr(config, "fast_path", True)
        self.policies = (
            policies if policies is not None else PolicyBundle.from_config(config)
        )
        self._submit = submit
        self._queues: Dict[str, CellTypeQueue] = {}
        self._queue_list: Tuple[CellTypeQueue, ...] = ()
        self._next_task_id = 0
        self.tasks_submitted = 0
        # Histogram of submitted batch sizes, for the evaluation's
        # "effective batch size" analysis.
        self.batch_size_counts: Counter = Counter()
        # Tracing scope (repro.trace), pushed down by the owning server's
        # attach_trace; None = record nothing.
        self.trace = None

    # -- registration -------------------------------------------------------

    def register_cell_type(self, cell_type: CellType) -> None:
        if cell_type.name in self._queues:
            raise ValueError(f"cell type {cell_type.name!r} registered twice")
        self._queues[cell_type.name] = CellTypeQueue(
            cell_type,
            self.config.for_cell(cell_type.name),
            fast_path=self.fast_path,
        )
        self._queue_list = tuple(self._queues.values())

    def add_subgraph(self, sg: Subgraph) -> None:
        """Accept a released subgraph into its cell type's queue."""
        if sg.cell_type_name not in self._queues:
            raise KeyError(
                f"subgraph of unregistered cell type {sg.cell_type_name!r}"
            )
        self.policies.placement.on_admit(sg)
        self._queues[sg.cell_type_name].add(sg)

    # -- Algorithm 1 ----------------------------------------------------------

    def schedule(self, worker) -> int:
        """Pick a cell type for ``worker`` (the bundle's queue-priority
        policy; the paper's three-tier criterion by default) and submit
        batched tasks.  Returns the number of tasks submitted."""
        chosen = self.policies.priority.select(self._queue_list)
        if chosen is None:
            return 0
        return self._batch(chosen, worker)

    def _batch(self, queue: CellTypeQueue, worker) -> int:
        """Algorithm 1's ``Batch``: submit up to MaxTasksToSubmit tasks."""
        num_tasks = 0
        while num_tasks < self.config.max_tasks_to_submit:
            plan = self.policies.formation.form(queue, worker)
            batch_size = sum(count for _, count in plan)
            if batch_size == 0:
                break
            if batch_size >= queue.config.min_batch or num_tasks == 0:
                self._commit(queue, worker, plan)
                num_tasks += 1
            else:
                break
        return num_tasks

    def _form_batched_task(
        self, queue: CellTypeQueue, worker
    ) -> List[Tuple[Subgraph, int]]:
        """The bundle's ``FormBatchedTask`` (kept as a seam for the
        invariant tests)."""
        return self.policies.formation.form(queue, worker)

    def _form_batched_task_reference(
        self, queue: CellTypeQueue, worker
    ) -> List[Tuple[Subgraph, int]]:
        """Brute-force reference plan, regardless of the active bundle."""
        return PaperBatchFormation(fast_path=False).form(queue, worker)

    def _commit(
        self,
        queue: CellTypeQueue,
        worker,
        plan: List[Tuple[Subgraph, int]],
    ) -> None:
        """Materialise a planned batch: pop the ready nodes, build the task,
        bind subgraphs to the worker (placement policy), update
        (optimistic) dependencies, and submit."""
        entries = []
        for sg, count in plan:
            node_ids = sg.take_ready(count)
            if len(node_ids) != count:
                raise RuntimeError(
                    f"subgraph {sg.subgraph_id}: planned {count} nodes but "
                    f"only {len(node_ids)} were ready"
                )
            for nid in node_ids:
                entries.append((sg, sg.graph.node(nid)))
            self.policies.placement.bind(sg, worker.worker_id)
            sg.mark_submitted(node_ids)
            if sg.exhausted():
                queue.remove(sg)
                self.policies.formation.on_subgraph_removed(queue, sg)
        task = BatchedTask(self._next_task_id, queue.cell_type, entries)
        self._next_task_id += 1
        queue.running_tasks += 1
        self.tasks_submitted += 1
        self.batch_size_counts[task.batch_size] += 1
        if self.trace is not None:
            self.trace.instant(
                trace_events.SCHED_BATCH_FORMED,
                trace_events.SCHED,
                device_id=worker.worker_id,
                task_id=task.task_id,
                args={
                    "requests": [sg.request.request_id for sg in task.subgraphs()],
                    "cell": queue.cell_type.name,
                    "batch": task.batch_size,
                },
            )
        self._submit(task, worker)

    # -- failure handling (DESIGN.md §8) -------------------------------------

    def evict_request(self, request) -> int:
        """Unwind a cancelled *or preempted* request: drop every one of its
        subgraphs that is still queued.  Terminal cancellation and the
        memory layer's evict-and-restart (``Manager.restart_request``) both
        come through here.  ``CellTypeQueue.remove`` gives the ready counter
        back and clears the owner, so the lazy heap entries left behind are
        recognised as stale and discarded on pop — the fast path stays
        bit-identical to a brute-force rescan.  The formation policy's
        ``on_subgraph_removed`` hook fires for each eviction so bundles
        keeping their own eligibility indexes stay consistent.  Returns how
        many subgraphs were evicted."""
        evicted = 0
        for sg in request.subgraphs.values():
            owner = sg.owner
            if owner is not None:
                owner.remove(sg)
                self.policies.formation.on_subgraph_removed(owner, sg)
                evicted += 1
        if self.trace is not None:
            self.trace.instant(
                trace_events.SCHED_EVICT,
                trace_events.SCHED,
                request_id=request.request_id,
                args={"evicted": evicted},
            )
        return evicted

    def resubmit(self, task: BatchedTask) -> None:
        """Account a retried task as running again.  Retries do not count
        toward ``tasks_submitted`` or the batch-size histogram — those
        describe the scheduling policy's decisions, which a retry replays
        rather than makes."""
        self._queues[task.cell_type.name].running_tasks += 1

    def repin_queued(self, dead_worker_id: int, replacement: Optional[int]) -> int:
        """A device died: migrate every queued subgraph pinned to it to the
        placement policy's choice (``replacement`` under the default
        policies; unpin when None).  O(queued subgraphs), which is fine for
        the rare device-loss path.  Returns how many moved."""
        placement = self.policies.placement
        moved = 0
        for queue in self._queue_list:
            for sg in queue.subgraphs.values():
                if sg.pinned == dead_worker_id:
                    sg.repin(
                        placement.repin_target(sg, dead_worker_id, replacement)
                    )
                    moved += 1
        return moved

    # -- completion ---------------------------------------------------------

    def task_completed(self, task: BatchedTask) -> None:
        queue = self._queues[task.cell_type.name]
        queue.running_tasks -= 1
        if queue.running_tasks < 0:
            raise RuntimeError(
                f"cell type {task.cell_type.name!r}: running task underflow"
            )

    # -- introspection --------------------------------------------------------

    def total_ready_nodes(self) -> int:
        return sum(q.num_ready_nodes() for q in self._queue_list)

    def queue_for(self, cell_name: str) -> CellTypeQueue:
        return self._queues[cell_name]

    def mean_batch_size(self) -> float:
        total = sum(b * c for b, c in self.batch_size_counts.items())
        count = sum(self.batch_size_counts.values())
        return total / count if count else 0.0
