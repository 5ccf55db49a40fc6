"""The batching scheduler — the paper's Algorithm 1.

One :class:`CellTypeQueue` per cell type holds released subgraphs in FIFO
order.  ``schedule(worker)`` picks a cell type via the bundle's
:class:`~repro.policies.QueuePriorityPolicy` (the paper's three-tier
criterion by default), then ``_batch`` forms (via the bundle's
:class:`~repro.policies.BatchFormationPolicy`) and submits up to
``MaxTasksToSubmit`` batched tasks to that worker, pinning the touched
subgraphs there when the :class:`~repro.policies.PlacementPolicy` made
them optimistic — as it does by default, so dependent follow-up tasks stay
on the same device (whose FIFO stream order then satisfies their
dependencies without waiting for completions).

Hot-path complexity
-------------------
The scheduling decision itself must be cheap relative to a kernel launch
(the whole point of fine-grained batching), so the queue keeps its state
incrementally instead of rescanning:

* Admission is one call per request, not per subgraph: the request
  processor hands ``add_subgraph`` everything a request releases at once —
  every leaf of a tree — and each queue takes its share in one
  :meth:`CellTypeQueue.add`, one ``extend`` of its list (DESIGN.md §34).
* ``num_ready_nodes()`` is a counter read.  Subgraphs report ready-count
  deltas to their owning queue (``on_ready_delta``) whenever nodes are
  taken, submitted, or completed.  The queue hands a plan out itself
  (:meth:`CellTypeQueue.commit`) and drops a member whose take is its last
  before that member's ``commit``, so no subgraph checks for exhaustion
  and no other module writes the queue's fields (DESIGN.md §35).
* Batch formation reads one list per queue of the subgraphs with ready
  nodes, kept sorted by arrival order (:meth:`CellTypeQueue.plan`), and
  skips those pinned to another worker, so the scan order is bit-identical
  to the original full-queue FIFO scan.  A pin is a field on the subgraph,
  not a move in the list: a worker is scheduled only when idle, so every
  member of a round pins at its commit and unpins at its last retirement,
  and on one GPU no pin ever changes a plan (DESIGN.md §31).  Planning is
  a read: nothing is popped, so a plan declined under the min-batch rule
  needs no undo and a committed one touches the list only when a
  subgraph's ready count rises from zero.
* A task is walked a fixed, small number of times (DESIGN.md §19, §30):
  one ``Subgraph.commit`` per plan member in the queue, which appends
  ``(subgraph, node_id)`` entries straight onto the task's list — no node
  object is built (DESIGN.md §27) — and the task keeps the plan as its
  member list.  At submission two passes read the members: the manager's
  placement walk and the worker's composition ids.  At completion one
  pass goes over the entries, and a second only over the nodes read from
  outside their subgraph.

This is the only scheduler in ``src/``.  The original O(queue) scans — a
full FIFO scan per batch, a full recount per ready-node read — live in
``tests/oracles/bruteforce_scheduler.py``; ``tests/test_scheduler_equivalence.py``
and the interleaving harness hold the two bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cell import CellType
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.core.subgraph import Entries, Subgraph
from repro.core.task import BatchedTask
from repro.policies import PolicyBundle, bundle_from_names


class CellTypeQueue:
    """Scheduler state for one cell type.

    ``subgraphs`` is the authoritative FIFO (insertion-ordered) of queued
    subgraphs.  On top of it the queue maintains:

    * ``_ready_total`` — sum of ``ready_count`` over queued subgraphs,
      updated by deltas from :meth:`on_ready_delta`.
    * ``_entries`` — one list of ``(queue_seq, subgraph)`` entries sorted
      by ``queue_seq``, listing every queued subgraph with ready nodes, each
      at most once, whatever its pin.  An entry goes in when a subgraph's
      ready count rises from zero — at :meth:`add` or :meth:`on_ready_delta`
      — and a pin never moves it (DESIGN.md §31).  Entries are not deleted
      one by one: :meth:`plan` drops the ones whose subgraph left the queue
      or has nothing ready when it reads them, and the queue drops them all
      when its last subgraph leaves.

    ``max_batch`` and ``min_batch`` are the config's, read once here: the
    formation and the follow-up rule read them per task (DESIGN.md §37).
    """

    def __init__(self, cell_type: CellType, config: CellTypeConfig):
        self.cell_type = cell_type
        self.config = config
        self.max_batch = config.max_batch
        self.min_batch = config.min_batch
        self.subgraphs: Dict[int, Subgraph] = {}
        self.running_tasks = 0
        self._ready_total = 0
        self._next_seq = 0
        self._entries: List[Tuple[int, Subgraph]] = []

    # -- ready-node accounting ---------------------------------------------

    def num_ready_nodes(self) -> int:
        return self._ready_total

    def add(self, subgraphs: Sequence[Subgraph]) -> None:
        """Queue ``subgraphs`` in order behind every subgraph queued here:
        consecutive ``queue_seq``s, and the ones with ready nodes listed by
        one ``extend`` — the newest arrivals sort last."""
        seq = self._next_seq
        members = self.subgraphs
        ready_total = self._ready_total
        listed = []
        for sg in subgraphs:
            sg.owner = self
            sg.queue_seq = seq
            members[sg.subgraph_id] = sg
            ready = sg.ready_count
            if ready > 0:
                ready_total += ready
                listed.append((seq, sg))
            seq += 1
        self._next_seq = seq
        self._ready_total = ready_total
        self._entries.extend(listed)

    def remove(self, sg: Subgraph) -> None:
        """Drop an evicted subgraph and its ready count."""
        self.subgraphs.pop(sg.subgraph_id, None)
        self._ready_total -= sg.ready_count
        sg.owner = None
        if not self.subgraphs:
            # Every entry left is stale: an idle queue keeps no retired
            # subgraph alive until its next plan.
            self._entries.clear()

    def commit(self, plan: List[Tuple[Subgraph, int]], worker_id: int) -> Entries:
        """Hand ``plan`` out to a task on ``worker_id``: one
        ``Subgraph.commit`` per member, each appending its ``(subgraph,
        node_id)`` entries to the list returned.

        A member whose take is its last (``count == unsubmitted``) leaves
        before its ``commit``, which then tells the queue nothing: its
        membership and owner go first, its ready count — which a take of
        every node still to hand out equals — and an emptied queue's list
        after the loop.  That is :meth:`remove` in place, with one
        subtraction for all of them: every tree leaf takes this branch
        (DESIGN.md §35).  Every member is queued here: :meth:`plan` lists
        only those.

        A member whose ``commit`` refuses the take (overdrawn, or pinned to
        another worker) stays queued exactly as before the call — its
        membership, in queue order, its owner, its ready count and its
        list entry — and the refusal propagates; the members before it
        stay committed.  A member of another cell type is refused the
        same way, with a ValueError, before anything of it is touched:
        the task built from the plan does not walk it again (DESIGN.md
        §39)."""
        entries: Entries = []
        members = self.subgraphs
        name = self.cell_type.name
        left = 0
        try:
            for sg, count in plan:
                if sg.cell_type_name != name:
                    raise ValueError(
                        f"subgraph {sg.subgraph_id} has type "
                        f"{sg.cell_type_name!r}, expected {name!r}"
                    )
                if count == sg.unsubmitted:
                    del members[sg.subgraph_id]
                    sg.owner = None
                    left += count
                sg.commit(count, worker_id, entries)
        except ValueError:  # of another type: raised before it was touched
            self._ready_total -= left
            raise
        except RuntimeError:
            if sg.owner is None:  # dropped above as a last take
                left -= count
                sg.owner = self
                queued = sorted((*members.values(), sg), key=attrgetter("queue_seq"))
                members.clear()
                members.update((m.subgraph_id, m) for m in queued)
            self._ready_total -= left
            raise
        if left:
            self._ready_total -= left
            if not members:
                self._entries.clear()
        return entries

    def on_ready_delta(self, sg: Subgraph, delta: int) -> None:
        """``sg``'s ready count changed by ``delta`` while queued here.  A
        rise from zero lists it; a fall leaves its entry to go stale, to be
        dropped when a plan next reads it."""
        self._ready_total += delta
        if delta > 0 and sg.ready_count == delta:
            self._insert(sg)

    def _insert(self, sg: Subgraph) -> None:
        """Ensure ``sg`` has an entry: a plan may not have read (and
        dropped) the one it had when its ready count last fell to zero."""
        entries = self._entries
        seq = sg.queue_seq
        if not entries or entries[-1][0] < seq:
            entries.append((seq, sg))
            return
        # ``(seq,)`` sorts just before ``(seq, sg)``: the search lands on
        # the subgraph's own entry if it has one, else where it belongs.
        at = bisect_left(entries, (seq,))
        if entries[at][0] != seq:
            entries.insert(at, (seq, sg))

    def plan(self, worker_id: int, budget: int) -> List[Tuple[Subgraph, int]]:
        """Algorithm 1's ``FormBatchedTask`` as a read: ``(subgraph,
        count)`` takes of up to ``budget`` ready nodes, from the subgraphs
        ``worker_id`` may execute — unpinned, or pinned to it — in arrival
        order.

        One pass over the entries: an entry pinned to another worker is
        skipped and kept, on one attribute read, and the rest are checked
        against the subgraph's live state.  Nothing observable changes —
        ``subgraphs``, the ready total and every member are left as they
        were, so the caller may decline the plan; the only write drops the
        entries found stale.
        """
        plan: List[Tuple[Subgraph, int]] = []
        if budget <= 0:
            return plan
        entries = self._entries
        stale: List[int] = []
        position = -1
        for _, sg in entries:
            position += 1
            pinned = sg.pinned
            if pinned is not None and pinned != worker_id:
                continue  # kept: the worker it is pinned to reads it
            ready = sg.ready_count if sg.owner is self else 0
            if ready <= 0:
                stale.append(position)
                continue
            if ready < budget:
                plan.append((sg, ready))
                budget -= ready
            else:
                plan.append((sg, budget))
                break
        if stale:
            _delete_positions(entries, stale)
        return plan

    def __repr__(self) -> str:
        return (
            f"<CellTypeQueue {self.cell_type.name!r} "
            f"subgraphs={len(self.subgraphs)} running={self.running_tasks}>"
        )


def _delete_positions(entries: list, positions: List[int]) -> None:
    """Delete the ascending ``positions`` from ``entries``: one slice per
    run of neighbours, last run first so earlier positions stay valid."""
    stop = len(positions)
    while stop:
        start = stop - 1
        while start and positions[start - 1] + 1 == positions[start]:
            start -= 1
        del entries[positions[start] : positions[stop - 1] + 1]
        stop = start


class Scheduler:
    """Forms batched tasks and assigns them to workers (paper Algorithm 1).

    The three *decisions* — which queue to serve, which nodes to batch,
    where a subgraph's work binds — live in a
    :class:`~repro.policies.PolicyBundle`; this class owns the mechanism
    (queues, counters, task construction, accounting).  When no bundle is
    given, the paper's defaults apply, reproducing the pre-policy-layer
    engine bit for bit.
    """

    def __init__(
        self,
        config: BatchingConfig,
        submit: Callable[[BatchedTask, "object"], None],
        policies: Optional[PolicyBundle] = None,
    ):
        self.config = config
        self.policies = policies if policies is not None else bundle_from_names()
        self._submit = submit
        self._queues: Dict[str, CellTypeQueue] = {}
        self.queues: Tuple[CellTypeQueue, ...] = ()
        self._next_task_id = 0
        self.tasks_submitted = 0
        # Histogram of submitted batch sizes, for the evaluation's
        # "effective batch size" analysis.
        self.batch_size_counts: Counter = Counter()

    # -- registration -------------------------------------------------------

    def register_cell_type(self, cell_type: CellType) -> None:
        if cell_type.name in self._queues:
            raise ValueError(f"cell type {cell_type.name!r} registered twice")
        self._queues[cell_type.name] = CellTypeQueue(
            cell_type, self.config.for_cell(cell_type.name)
        )
        self.queues = tuple(self._queues.values())

    def add_subgraph(self, *subgraphs: Subgraph) -> None:
        """Accept released subgraphs into their cell types' queues, in
        order: the request processor hands over everything a request
        releases at once — every leaf of a tree — in one call, and each
        queue takes its share in one :meth:`CellTypeQueue.add`.  All or
        none: a subgraph of an unregistered cell type raises before any is
        placed or queued."""
        queues = self._queues
        groups: Dict[str, List[Subgraph]] = {}
        for sg in subgraphs:
            name = sg.cell_type_name
            if name in groups:
                groups[name].append(sg)
            elif name in queues:
                groups[name] = [sg]
            else:
                raise KeyError(f"subgraph of unregistered cell type {name!r}")
        self.policies.placement.on_admit(subgraphs)
        for name in groups:
            queues[name].add(groups[name])

    # -- Algorithm 1 ----------------------------------------------------------

    def schedule(self, worker) -> int:
        """Pick a cell type for ``worker`` (the bundle's queue-priority
        policy; the paper's three-tier criterion by default) and submit
        batched tasks.  Returns the number of tasks submitted."""
        chosen = self.policies.priority.select(self.queues)
        if chosen is None:
            return 0
        return self._batch(chosen, worker)

    def _batch(self, queue: CellTypeQueue, worker) -> int:
        """Algorithm 1's ``Batch``: submit up to MaxTasksToSubmit tasks.
        The queue hands each plan kept out (:meth:`CellTypeQueue.commit`:
        entries, pins, optimistic dependencies, a member's leave at its
        last take), and the task built from it keeps the plan as its member
        list."""
        num_tasks = 0
        min_batch = queue.min_batch
        while num_tasks < self.config.max_tasks_to_submit:
            plan = self.policies.formation.form(queue, worker)
            if not plan:
                break
            # A follow-up below the minimum batch is declined.  Every take
            # is at least one node, so under a minimum of 1 (the default
            # ``Bsizes``) no plan is summed.
            if num_tasks and min_batch > 1 and sum([c for _, c in plan]) < min_batch:
                break
            entries = queue.commit(plan, worker.worker_id)
            task = BatchedTask(self._next_task_id, queue.cell_type, entries, plan)
            self._next_task_id += 1
            queue.running_tasks += 1
            self.tasks_submitted += 1
            self.batch_size_counts[task.batch_size] += 1
            self._submit(task, worker)
            num_tasks += 1
        return num_tasks

    # -- failure handling (DESIGN.md §8) -------------------------------------

    def evict_request(self, request) -> int:
        """Unwind a cancelled *or preempted* request: drop every one of its
        subgraphs that is still queued.  Terminal cancellation and the
        memory layer's evict-and-restart both come through here
        (``Manager.evict``).  ``CellTypeQueue.remove`` gives the ready counter
        back and clears the owner, so the list entries left behind are
        recognised as stale and dropped by the next plan that reads them —
        plans stay bit-identical to a brute-force rescan.  Returns how many
        subgraphs were evicted."""
        evicted = 0
        for sg in request.subgraphs.values():
            owner = sg.owner
            if owner is not None:
                owner.remove(sg)
                evicted += 1
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
        the rare device-loss path.  The new pin is a store: a subgraph's
        list entry stays where its arrival put it.  Returns how many
        moved."""
        placement = self.policies.placement
        moved = 0
        for queue in self.queues:
            for sg in queue.subgraphs.values():
                if sg.pinned == dead_worker_id:
                    sg.pinned = placement.repin_target(sg, dead_worker_id, replacement)
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

    def mean_batch_size(self) -> float:
        total = sum(b * c for b, c in self.batch_size_counts.items())
        count = sum(self.batch_size_counts.values())
        return total / count if count else 0.0
