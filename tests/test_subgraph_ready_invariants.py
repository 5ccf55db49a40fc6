"""Property-style tests for the incremental ready-count accounting and
the queue's list of ready subgraphs.

After *any* interleaving of subgraph releases, scheduling (``commit``),
task completion and its propagation, request eviction and forced
repins on LSTM-chain, Seq2Seq and TreeLSTM partitions, these invariants
must hold for every cell-type queue:

1. the incremental counter equals a brute-force recount of
   ``ready_count`` over the queued subgraphs,
2. the indexed ``FormBatchedTask`` (``CellTypeQueue.plan``) plans exactly
   what the brute-force FIFO scan plans, for every worker,
3. the queue's one list is sorted by ``queue_seq``, holds one entry per
   subgraph, and lists every queued subgraph with ready nodes whatever its
   pin, and
4. forming a plan — kicked, declined under the min-batch rule, or held by
   ``LazyKickPolicy`` — leaves the queue and its subgraphs as they were,
   and
5. every live subgraph's in-flight count — derived, ``uncompleted -
   unsubmitted`` — equals a brute-force count of its nodes in the tasks
   not yet completed, and an optimistic non-sticky subgraph is pinned
   exactly when that count is non-zero (a non-optimistic one never is),
   and
6. every live subgraph's ``ready_count`` slot — queued, waiting for its
   release or handed out whole — equals a recount from its own structures
   (the ready list's length, the cursor, the tree's pending counters) and a
   brute-force count of its nodes not handed out whose in-subgraph
   predecessors all were (optimistic) or all completed (DESIGN.md §37).

LSTM chains are run-backed subgraphs (``RunSubgraph``: readiness is a
cursor, not per-node counts); the same invariants are asserted for them
at every step, plus the cursor's own: the ready node, when there is one, is
the first node not yet submitted.  Parse trees are ``LeafSubgraph`` (a
run one step long) and ``TreeSubgraph`` (a pending-children counter per
node) objects; for them the ready nodes are recomputed from which nodes
were handed out and which completed, and no commit of a ``TreeSubgraph``
inserts into the queue's list: its ready count is above zero before every
take, so the subgraph is listed already, and a pin moves nothing.
"""

import random
import zlib
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.cell_graph import CellGraph
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import CellTypeQueue, Scheduler
from repro.core.subgraph import (
    LeafSubgraph,
    RunSubgraph,
    Subgraph,
    TreeSubgraph,
    partition_into_subgraphs,
)
from repro.core.task import BatchedTask
from repro.faults import SLAConfig
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload
from repro.policies import (
    LazyKickPolicy,
    PinnedPlacement,
    UnpinnedPlacement,
    bundle_from_names,
)
from repro.policies.base import BatchFormationPolicy
from repro.sim.events import EventLoop
from repro.workload.trees import random_parse_tree
from tests.oracles.bruteforce_scheduler import (
    BruteForceFormation,
    recount_ready_nodes,
)
from tests.oracles.explicit_chain import ExplicitChainModel, ExplicitSeq2SeqModel
from tests.oracles.explicit_tree import ExplicitTreeModel


class FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


def _payload(model, rng):
    if isinstance(model, LSTMChainModel):
        return rng.randint(1, 12)
    if isinstance(model, Seq2SeqModel):
        return {"src": rng.randint(1, 8), "tgt_len": rng.randint(1, 8)}
    if rng.random() < 0.5:
        return TreePayload.complete(2 ** rng.randint(0, 3))
    shape_rng = np.random.default_rng(rng.randrange(1 << 30))
    return random_parse_tree(shape_rng, rng.randint(1, 9))


def _observable(queue):
    """What planning may not change: queue order, the ready total and each
    queued subgraph's scheduling state."""
    return (
        list(queue.subgraphs),
        queue._ready_total,
        [
            (sg.ready_count, sg.pinned, sg.inflight, sg.unsubmitted)
            for sg in queue.subgraphs.values()
        ],
    )


class CheckedFormation(BatchFormationPolicy):
    """Wraps a formation policy and asserts, around every ``form``, that
    planning left the queue as it found it — whatever the caller then does
    with the plan (commit it, or decline it under the min-batch rule)."""

    def __init__(self, inner):
        self.inner = inner
        self.plans_formed = 0  # non-empty ones

    def form(self, queue, worker):
        before = _observable(queue)
        plan = self.inner.form(queue, worker)
        assert _observable(queue) == before, "form() changed the queue"
        self.plans_formed += bool(plan)
        return plan


class Harness:
    """Scheduler + request processor, no workers/event loop: the test picks
    which pending task completes next, in any order."""

    def __init__(self, model, config, num_workers, placement=None):
        self.pending = []
        self.handed_out = set()  # (request id, node id) of every submitted node
        self.scheduler = Scheduler(
            config, submit=self._submit, policies=bundle_from_names(placement=placement)
        )
        self.formation = CheckedFormation(self.scheduler.policies.formation)
        self.scheduler.policies.formation = self.formation
        for cell_type in model.cell_types():
            self.scheduler.register_cell_type(cell_type)
        self.processor = RequestProcessor(
            model,
            on_release=self.scheduler.add_subgraph,
            on_finished=lambda request: None,
        )
        self.workers = [FakeWorker(i) for i in range(num_workers)]
        # Subgraphs whose pin ``repin_one`` forced: their pin no longer
        # follows their nodes in flight.
        self.forced_pins = set()
        self._next_request_id = 0
        self.run_backed_checks = 0  # queued RunSubgraphs seen by assert_invariants
        self.tree_backed_checks = 0  # queued Leaf/TreeSubgraphs seen there
        self.generic_checks = 0  # queued generic Subgraphs seen there
        self.slot_checks = 0  # live subgraphs whose slot was recounted
        self.declined_plans = 0  # formed by schedule() but not committed
        # A lazy-kick policy over the same queues, with just enough engine
        # behind it to be active: every request arrived at t=0 without a
        # deadline and the clock stands at 0, so it holds any plan short of
        # a full batch.
        self.lazy = LazyKickPolicy()
        self.lazy.attach(
            SimpleNamespace(
                sla=SLAConfig(),
                loop=EventLoop(),
                node_time_estimate=0.0,
                wake=lambda: None,
            )
        )
        self.lazy_checked = CheckedFormation(self.lazy)

    def _submit(self, task, worker):
        self.pending.append(task)
        for sg, node_id in task.entries:
            self.handed_out.add((sg.request.request_id, node_id))

    def add_request(self, payload):
        request = InferenceRequest(self._next_request_id, payload, 0.0)
        self._next_request_id += 1
        self.processor.add_request(request)

    def schedule(self, rng):
        formed, submitted = self.formation.plans_formed, self.scheduler.tasks_submitted
        self.scheduler.schedule(rng.choice(self.workers))
        self.declined_plans += (self.formation.plans_formed - formed) - (
            self.scheduler.tasks_submitted - submitted
        )

    def complete_one(self, rng):
        if not self.pending:
            return
        task = self.pending.pop(rng.randrange(len(self.pending)))
        self.scheduler.task_completed(task)
        self.processor.handle_task_completion(task, now=0.0)

    def evict_one(self, rng):
        """Cancel a random live request the way ``Manager._cancel_request``
        does; its nodes in flight retire later without bookkeeping."""
        live = self.processor.live_requests()
        if not live:
            return
        request = rng.choice(live)
        request.mark_timed_out(0.0, reason="evicted by the test")
        self.scheduler.evict_request(request)
        self.processor.forget(request)

    def repin_one(self, rng):
        """Force a random queued subgraph's pin to a random worker, or off
        (what device loss does to the subgraphs queued on the victim)."""
        queued = [
            sg
            for queue in self.scheduler.queues
            for sg in queue.subgraphs.values()
        ]
        if queued:
            targets = [None] + [w.worker_id for w in self.workers]
            sg = rng.choice(queued)
            sg.pinned = rng.choice(targets)
            self.forced_pins.add(sg)

    # -- invariants ---------------------------------------------------------

    def assert_invariants(self):
        self.assert_in_flight()
        self.assert_ready_slots()
        for queue in self.scheduler.queues:
            for sg in queue.subgraphs.values():
                if isinstance(sg, LeafSubgraph):  # a RunSubgraph too
                    self.tree_backed_checks += 1
                    (node_id,) = sg.node_ids
                    handed_out = (sg.request.request_id, node_id) in self.handed_out
                    assert sg.ready_count == sg.unsubmitted == (not handed_out)
                elif isinstance(sg, RunSubgraph):
                    self.run_backed_checks += 1
                    assert sg.ready_count in (0, 1)
                    if sg.ready_count:
                        assert sg._cursor == sg.run.stop - sg.unsubmitted
                elif isinstance(sg, TreeSubgraph):
                    self.tree_backed_checks += 1
                    assert sorted(sg.ready) == self.expected_tree_ready(sg)
                    assert sg.external_pending == 0, "queued before its leaves finished"
                else:
                    self.generic_checks += 1
            recount = recount_ready_nodes(queue)
            assert queue.num_ready_nodes() == recount, (
                f"{queue.cell_type.name}: counter {queue.num_ready_nodes()} "
                f"!= brute-force recount {recount}"
            )
            assert queue._ready_total == recount
            self.assert_index_invariants(queue)
            for worker in self.workers:
                fast = self.formation.form(queue, worker)
                reference = BruteForceFormation().form(queue, worker)
                assert [(sg.subgraph_id, n) for sg, n in fast] == [
                    (sg.subgraph_id, n) for sg, n in reference
                ], f"{queue.cell_type.name} plan mismatch for worker {worker.worker_id}"
                # Planning must be side-effect free (CheckedFormation looks
                # at every queued subgraph as well).
                assert queue._ready_total == recount
                assert recount_ready_nodes(queue) == recount
                held = self.lazy_checked.form(queue, worker)
                full = sum(n for _, n in fast) >= queue.config.max_batch
                assert held == (fast if full else [])
            # Reading the plans pruned stale entries; what is left still
            # lists every eligible subgraph.
            self.assert_index_invariants(queue)

    def assert_in_flight(self):
        """Invariant 5, against the nodes of the pending tasks."""
        in_flight = Counter(sg for task in self.pending for sg, _ in task.entries)
        for request in self.processor.live_requests():
            for sg in request.subgraphs.values():
                assert sg.inflight == in_flight[sg], (
                    f"subgraph {sg.subgraph_id}: inflight {sg.inflight}, "
                    f"{in_flight[sg]} nodes in pending tasks"
                )
                if sg not in self.forced_pins and not sg.sticky:
                    pinned = in_flight[sg] > 0 and sg.optimistic
                    assert (sg.pinned is not None) == pinned, sg

    def assert_ready_slots(self):
        """Invariant 6, on every subgraph of every live request."""
        for request in self.processor.live_requests():
            for sg in request.subgraphs.values():
                self.slot_checks += 1
                recount = _recounted_ready(sg)
                expected = self.expected_ready_count(sg)
                assert sg.ready_count == recount == expected, (
                    f"{sg!r}: slot {sg.ready_count}, recount {recount}, "
                    f"brute force {expected}"
                )

    def expected_ready_count(self, sg):
        """Brute force: the nodes not handed out whose predecessors inside
        the subgraph were all handed out (optimistic) or all completed."""
        if isinstance(sg, TreeSubgraph):
            return len(self.expected_tree_ready(sg))
        request_id, graph = sg.request.request_id, sg.graph
        members = set(sg.node_ids)

        def cleared(pred):
            handed_out = (request_id, pred) in self.handed_out
            return handed_out and (sg.optimistic or bool(graph.done[pred]))

        return sum(
            1
            for node_id in members
            if (request_id, node_id) not in self.handed_out
            and all(cleared(p) for p in graph.predecessors(node_id) if p in members)
        )

    def expected_tree_ready(self, sg):
        """Brute force: the internal nodes not handed out whose internal
        children all were (optimistic) or all completed (otherwise)."""
        tree, request_id = sg.tree, sg.request.request_id

        def holds_parent_back(index):
            if tree.left[index] < 0:
                return False  # a leaf gates the release, not readiness
            node_id = tree.first_id + index
            if (request_id, node_id) not in self.handed_out:
                return True
            return not sg.optimistic and not sg.graph.done[node_id]

        return [
            tree.first_id + index
            for index, (lhs, rhs) in enumerate(zip(tree.left, tree.right))
            if lhs >= 0
            and (request_id, tree.first_id + index) not in self.handed_out
            and not holds_parent_back(lhs)
            and not holds_parent_back(rhs)
        ]

    @staticmethod
    def assert_index_invariants(queue):
        entries = queue._entries
        seqs = [seq for seq, _ in entries]
        assert seqs == sorted(set(seqs)), "the list is unsorted or lists a seq twice"
        assert all(seq == sg.queue_seq for seq, sg in entries)
        listed = {id(sg) for _, sg in entries}
        assert len(listed) == len(entries), "the list holds a subgraph twice"
        for sg in queue.subgraphs.values():
            if sg.ready_count > 0:
                assert id(sg) in listed, (
                    f"subgraph {sg.subgraph_id} with ready nodes (pinned to "
                    f"{sg.pinned}) missing from the list"
                )


def _recounted_ready(sg):
    """A subgraph's ready count from its own structures, not the slot: the
    cursor of a run (or leaf), the internal positions of a tree whose
    pending count reached zero less those handed out, the ready list of the
    generic subgraph."""
    if isinstance(sg, RunSubgraph):  # a LeafSubgraph too
        return 0 if sg._cursor is None else 1
    if isinstance(sg, TreeSubgraph):
        internal = [i for i, child in enumerate(sg.tree.left) if child >= 0]
        settled = sum(1 for i in internal if sg._pending[i] == 0)
        return settled - (len(internal) - sg.unsubmitted)
    return len(sg.ready)


MODELS = [
    ("lstm_chain", LSTMChainModel, 4),
    ("lstm_chain_proj", lambda: LSTMChainModel(project_output=True), 4),
    ("seq2seq", Seq2SeqModel, 16),
    # The per-step oracle: the one model left whose partition has
    # multi-node generic subgraphs (``_internal_pending``,
    # ``_advance_internal``, ``mark_completed_internal``).
    ("seq2seq_explicit", ExplicitSeq2SeqModel, 16),
    ("tree_lstm", TreeLSTMModel, 4),
]


@pytest.mark.parametrize("name,model_cls,max_batch", MODELS)
@pytest.mark.parametrize("pinning", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ready_count_invariants_under_random_interleavings(
    name, model_cls, max_batch, pinning, seed, monkeypatch
):
    # A TreeSubgraph commit takes from a non-empty ready list, so the
    # subgraph is listed already: whatever the commit does to the ready list
    # and the pin, it inserts nothing into the queue's list.
    insertions = []
    insert, tree_commit = CellTypeQueue._insert, TreeSubgraph.commit

    def counted_insert(queue, sg):
        insertions.append(sg)
        insert(queue, sg)

    def checked_commit(sg, count, worker_id, entries):
        before = len(insertions)
        tree_commit(sg, count, worker_id, entries)
        assert insertions[before:] == [], "a TreeSubgraph's commit inserted into the list"

    monkeypatch.setattr(CellTypeQueue, "_insert", counted_insert)
    monkeypatch.setattr(TreeSubgraph, "commit", checked_commit)

    # crc32, not hash(): str hashes change with PYTHONHASHSEED, and a
    # failing interleaving must be replayable.
    rng = random.Random(zlib.crc32(repr((name, pinning, seed)).encode()))
    model = model_cls()
    # Seeds 0, 1, 2 run 1, 2, 3 workers; seed 1 also sets a minimum batch of
    # 2, so a round's follow-up plans get declined.
    config = BatchingConfig(
        default=CellTypeConfig((2 if seed == 1 else 1, max_batch)),
        max_tasks_to_submit=2,
    )
    harness = Harness(
        model, config, num_workers=seed + 1, placement=None if pinning else "unpinned"
    )

    for step in range(150):
        roll = rng.random()
        if roll < 0.30:
            harness.add_request(_payload(model, rng))
        elif roll < 0.60:
            harness.schedule(rng)
        elif roll < 0.85:
            harness.complete_one(rng)
        elif roll < 0.92:
            harness.evict_one(rng)
        else:
            harness.repin_one(rng)
        harness.assert_invariants()

    # Drain: complete everything, scheduling along the way; the counters
    # must hold all the way down to an empty system.
    guard = 0
    while harness.pending or any(
        queue.num_ready_nodes() for queue in harness.scheduler.queues
    ):
        harness.schedule(rng)
        harness.complete_one(rng)
        harness.assert_invariants()
        guard += 1
        assert guard < 5000, "drain did not converge"
    for queue in harness.scheduler.queues:
        assert queue.num_ready_nodes() == 0
    assert harness.slot_checks > 1000, "the ready slots were hardly recounted"
    if isinstance(model, ExplicitSeq2SeqModel):
        assert harness.run_backed_checks == 0
        assert harness.generic_checks > 100, "the generic path was not exercised"
    elif isinstance(model, (LSTMChainModel, Seq2SeqModel)):
        assert harness.run_backed_checks > 100, "chains were not run-backed"
    else:
        assert harness.run_backed_checks == 0
    if isinstance(model, TreeLSTMModel):
        assert harness.tree_backed_checks > 500, "trees were not tree-backed"
    else:
        assert harness.tree_backed_checks == 0
    assert harness.lazy.holds > 0, "the lazy-kick hold was never exercised"
    if seed != 1:
        assert harness.declined_plans == 0
    elif pinning:  # optimistic follow-ups: a lone subgraph plans a batch of 1
        assert harness.declined_plans > 0, "no plan was declined"


def _chain_scheduler():
    model = LSTMChainModel()
    scheduler = Scheduler(
        BatchingConfig.with_max_batch(4), submit=lambda task, worker: None
    )
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    return model, scheduler, scheduler._queues["lstm"]


def _partition(model, request_id, payload, start_id):
    """Unfold and partition one request; returns (request, subgraphs)."""
    graph = CellGraph()
    model.unfold(graph, payload)
    request = InferenceRequest(request_id, payload, 0.0)
    request.graph = graph
    subgraphs = partition_into_subgraphs(graph, request, start_id=start_id)
    request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
    return request, subgraphs


def _queue_chain(model, scheduler, request_id, length):
    """Unfold, partition and enqueue one chain; returns (request, subgraph):
    a ``RunSubgraph`` for ``LSTMChainModel``, the generic ``Subgraph`` for
    the oracle's ``ExplicitChainModel``."""
    request, (sg,) = _partition(model, request_id, length, start_id=request_id)
    assert type(sg) is (Subgraph if isinstance(model, ExplicitChainModel) else RunSubgraph)
    scheduler.add_subgraph(sg)
    return request, sg


def _hand_out(sg, count=1, worker_id=0):
    """A one-member plan handed out as the scheduler does it — through the
    subgraph's queue while it has one, which drops it at its last take —
    else its ``commit`` onto a fresh entry list: the ids of the nodes
    handed out, each entered with its subgraph."""
    if sg.owner is not None:
        entries = sg.owner.commit([(sg, count)], worker_id)
    else:
        entries = []
        sg.commit(count, worker_id, entries)
    assert all(entry_sg is sg for entry_sg, _ in entries)
    return [node_id for _, node_id in entries]


def _retire(sg, node_ids):
    """Complete ``node_ids`` of ``sg`` the way a retiring task does:
    through the request processor, which unpins at the last node in
    flight and, on the completion-ordered path, advances readiness."""
    processor = RequestProcessor(
        LSTMChainModel(), on_release=lambda *subgraphs: None, on_finished=lambda r: None
    )
    cell_type = sg.graph.cell_type_of(node_ids[0])  # an exhausted sg has no owner
    task = BatchedTask(0, cell_type, [(sg, nid) for nid in node_ids])
    processor.handle_task_completion(task, now=0.0)


def test_take_ready_notifies_owner_exactly_once():
    """Unit check on the delta protocol: a hand-out on a chain subgraph
    keeps its queue's counter exact — a step with a successor leaves one
    node ready (optimistic), the last step leaves none."""
    model, scheduler, queue = _chain_scheduler()
    _, sg = _queue_chain(model, scheduler, 0, 2)

    assert queue.num_ready_nodes() == 1
    assert _hand_out(sg) == [0]  # optimistic: the successor becomes ready
    assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)
    assert _hand_out(sg) == [1]
    assert queue.num_ready_nodes() == 0 == recount_ready_nodes(queue)


def test_run_cursor_keeps_counter_exact_without_optimism_and_on_eviction():
    """The same delta protocol on the completion-ordered path (the cursor
    advances in ``mark_completed_internal``), down to the last node, and
    when a queued run subgraph is evicted with its ready node untaken."""
    model, scheduler, queue = _chain_scheduler()

    _, sg = _queue_chain(model, scheduler, 0, 3)
    sg.optimistic = False
    for nid in range(3):
        assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)
        assert _hand_out(sg) == [nid]
        assert queue.num_ready_nodes() == 0 == recount_ready_nodes(queue)
        sg.mark_completed_internal([nid])
    assert sg.unsubmitted == 0 and sg.ready_count == 0
    assert queue.num_ready_nodes() == 0 == recount_ready_nodes(queue)
    queue.remove(sg)

    request, sg = _queue_chain(model, scheduler, 1, 5)
    _hand_out(sg)
    assert queue.num_ready_nodes() == 1
    assert scheduler.evict_request(request) == 1
    assert queue.num_ready_nodes() == 0 == recount_ready_nodes(queue)
    assert sg.owner is None


# -- RunSubgraph.commit against the generic hand-out over explicit nodes -----


def _index_snapshot(queue):
    return [seq for seq, _ in queue._entries]


def _ready_ids(sg):
    """The ready node ids, however the subgraph class keeps them."""
    if isinstance(sg, RunSubgraph):  # a leaf too
        return [] if sg._cursor is None else [sg._cursor]
    return list(sg.ready)


def _commit_state(sg, queue):
    return {
        "ready": _ready_ids(sg),
        "ready_count": sg.ready_count,
        "unsubmitted": sg.unsubmitted,
        "uncompleted": sg.uncompleted,
        "inflight": sg.inflight,
        "pinned": sg.pinned,
        "queue_total": queue._ready_total,
        "queue_recount": recount_ready_nodes(queue),
        "index": _index_snapshot(queue),
        "plans": [
            [(member.subgraph_id, n) for member, n in queue.plan(worker_id, 4)]
            for worker_id in (0, 1)
        ],
    }


class RecordingQueueCalls:
    """Wraps a queue's notification method to write down, in order, what
    the queue hears during a hand-out.  A pin is a store, not a call."""

    def __init__(self, queue):
        self.calls = []
        on_ready_delta = queue.on_ready_delta

        def ready_delta(sg, delta):
            self.calls.append(("ready", sg.subgraph_id, delta))
            on_ready_delta(sg, delta)

        queue.on_ready_delta = ready_delta


@pytest.mark.parametrize("placement_cls", [PinnedPlacement, UnpinnedPlacement])
@pytest.mark.parametrize("sticky", [False, True])
def test_run_commit_matches_the_base_sequence(placement_cls, sticky):
    """``RunSubgraph.commit`` is a shortcut through the generic
    ``Subgraph.commit``, not a second behaviour: a run and the generic
    subgraph over the oracle's explicit chain, driven side by side over a
    whole chain (first, middle and last step) with a completion between
    steps, leave the same ready node, counters, pin, queue total, index and
    plans, and hand out the same node ids."""
    placement = placement_cls()
    optimistic = placement_cls is PinnedPlacement  # what unpinned placement turns off
    worker_id = 1
    twins = []
    for model_cls in (LSTMChainModel, ExplicitChainModel):
        _, scheduler, queue = _chain_scheduler()
        model = model_cls()
        scheduler.policies.placement = placement
        _queue_chain(model, scheduler, 0, 2)  # a neighbour in the queue
        _, (sg,) = _partition(model, 1, 3, start_id=1)
        if sticky:  # what FixedPlacement.on_admit does
            sg.sticky = True
            sg.pinned = worker_id
        scheduler.add_subgraph(sg)
        assert sg.optimistic is optimistic
        twins.append((sg, queue))
    (fast_sg, fast_queue), (base_sg, base_queue) = twins
    assert type(fast_sg) is RunSubgraph and type(base_sg) is Subgraph
    assert _commit_state(fast_sg, fast_queue) == _commit_state(base_sg, base_queue)

    in_flight = []
    for step in range(3):
        fast_ids = _hand_out(fast_sg, 1, worker_id)
        assert fast_ids == _hand_out(base_sg, 1, worker_id) == [step]
        in_flight += fast_ids
        assert _commit_state(fast_sg, fast_queue) == _commit_state(base_sg, base_queue)
        if step == 1 or not optimistic:
            # Retire what is in flight: unpins (unless sticky), and on the
            # completion-ordered path makes the next step ready.
            for sg in (fast_sg, base_sg):
                _retire(sg, in_flight)
            in_flight = []
            assert _commit_state(fast_sg, fast_queue) == _commit_state(base_sg, base_queue)
    assert fast_sg.unsubmitted == 0 == base_sg.unsubmitted

    # Nothing is ready any more: both refuse with the scheduler's message
    # and stay as they were.
    before = _commit_state(fast_sg, fast_queue)
    for sg in (fast_sg, base_sg):
        for count in (1, 0):
            with pytest.raises(
                RuntimeError, match=f"subgraph 1: planned {count} nodes but only 0 were ready"
            ):
                _hand_out(sg, count, worker_id)
    assert _commit_state(fast_sg, fast_queue) == before == _commit_state(base_sg, base_queue)


def test_run_commit_refuses_more_than_the_one_ready_node():
    for model in (LSTMChainModel(), ExplicitChainModel()):
        _, scheduler, queue = _chain_scheduler()
        _, sg = _queue_chain(model, scheduler, 0, 5)
        entries = []
        with pytest.raises(RuntimeError, match="planned 2 nodes but only 1 were ready"):
            sg.commit(2, 0, entries)
        assert sg.ready_count == 1 == queue.num_ready_nodes() and sg.pinned is None
        assert entries == [] and sg.inflight == 0


def test_generic_commit_tells_the_queue_one_net_delta():
    """The generic hand-out tells the queue one net ready delta — the nodes
    the submission made ready less the nodes taken — and nothing when they
    cancel; the pin is a store the queue does not hear, and its list keeps
    the subgraph's one entry where it was."""
    # A chain: the step taken makes the next one ready, a net delta of 0.
    _, scheduler, queue = _chain_scheduler()
    _, sg = _queue_chain(ExplicitChainModel(), scheduler, 7, 3)
    recorder = RecordingQueueCalls(queue)
    listed = list(queue._entries)
    assert _hand_out(sg, 1, 1) == [0]
    assert recorder.calls == []
    assert queue._entries == listed == [(sg.queue_seq, sg)] and sg.pinned == 1
    assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)

    # A tree: both nodes over the leaves taken make the root ready, 1 - 2.
    model = ExplicitTreeModel()
    scheduler = Scheduler(BatchingConfig.with_max_batch(4), submit=lambda task, worker: None)
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    sg = _queue_tree(scheduler, model, 0, TreePayload.complete(4), 0)
    queue = scheduler._queues["tree_internal"]
    recorder = RecordingQueueCalls(queue)
    listed = list(queue._entries)
    assert sg.ready_count == 2
    assert len(_hand_out(sg, 2, 1)) == 2
    assert recorder.calls == [("ready", sg.subgraph_id, -1)]
    assert queue._entries == listed == [(sg.queue_seq, sg)] and sg.pinned == 1
    assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)


# -- A TreeSubgraph's readiness against the generic subgraph's ------------------


def _queue_tree(scheduler, model, request_id, payload, start_id):
    """Unfold and partition one tree, retire its leaves by hand and enqueue
    the internal subgraph (a ``TreeSubgraph``, or for the oracle's
    ``ExplicitTreeModel`` the generic ``Subgraph``); returns it."""
    request, subgraphs = _partition(model, request_id, payload, start_id)
    (internal,) = [sg for sg in subgraphs if sg.cell_type_name == "tree_internal"]
    leaves = [sg for sg in subgraphs if sg is not internal]
    assert type(internal) is TreeSubgraph or type(internal) is Subgraph
    released = []
    for leaf in leaves:
        (nid,) = leaf.node_ids
        request.graph.done[nid] = 1
        leaf.propagate(nid, released.append)
        # Only the last leaf releases the internal nodes.
        assert released == ([internal] if leaf is leaves[-1] else [])
    assert internal.external_pending == 0
    scheduler.add_subgraph(internal)
    return internal


def _tree_commit_state(sg, queue):
    state = _commit_state(sg, queue)
    # What still waits on a child, however the class counts it: node id ->
    # children in this subgraph not yet submitted / completed.
    if isinstance(sg, TreeSubgraph):
        first = sg.tree.first_id
        state["pending"] = {first + i: n for i, n in enumerate(sg._pending) if n}
    else:
        state["pending"] = {nid: n for nid, n in sg._internal_pending.items() if n}
    return state


@pytest.mark.parametrize("placement_cls", [PinnedPlacement, UnpinnedPlacement])
@pytest.mark.parametrize("sticky", [False, True])
def test_tree_commit_matches_the_base_sequence(placement_cls, sticky):
    """A ``TreeSubgraph`` hands out through the generic ``Subgraph.commit``,
    and its own readiness — a pending count per tree position — is not a
    second behaviour: a flat tree and the generic subgraph over
    the oracle's explicit tree, driven side by side over a whole tree in
    takes of up to three with completions in between, leave the same ready
    list, pending counts, counters, pin, queue total, index and plans, and
    hand out the same node ids."""
    placement = placement_cls()
    optimistic = placement_cls is PinnedPlacement  # what unpinned placement turns off
    worker_id = 1
    payload = random_parse_tree(np.random.default_rng(4), 14)
    twins = []
    for model_cls in (TreeLSTMModel, ExplicitTreeModel):
        model = model_cls()
        scheduler = Scheduler(
            BatchingConfig.with_max_batch(4), submit=lambda task, worker: None
        )
        scheduler.policies.placement = placement
        for cell_type in model.cell_types():
            scheduler.register_cell_type(cell_type)
        _queue_tree(scheduler, model, 0, TreePayload.complete(4), 0)  # a neighbour
        sg = _queue_tree(scheduler, model, 1, payload, 10)
        if sticky:  # what FixedPlacement.on_admit does
            sg.sticky = True
            sg.pinned = worker_id
        assert sg.optimistic is optimistic
        twins.append((sg, scheduler._queues["tree_internal"]))
    (fast_sg, fast_queue), (base_sg, base_queue) = twins
    assert type(fast_sg) is TreeSubgraph and type(base_sg) is Subgraph
    assert _tree_commit_state(fast_sg, fast_queue) == _tree_commit_state(base_sg, base_queue)

    rounds, in_flight = 0, []
    while fast_sg.unsubmitted:
        count = min(fast_sg.ready_count, 3)
        assert count > 0, "the tree stalled"
        node_ids = _hand_out(fast_sg, count, worker_id)
        assert node_ids == _hand_out(base_sg, count, worker_id) and len(node_ids) == count
        in_flight += node_ids
        assert _tree_commit_state(fast_sg, fast_queue) == _tree_commit_state(base_sg, base_queue)
        rounds += 1
        if rounds % 2 == 0 or not optimistic:
            # Retire what is in flight: unpins (unless sticky), and on the
            # completion-ordered path makes the parents ready.
            for sg in (fast_sg, base_sg):
                _retire(sg, in_flight)
            in_flight = []
            assert _tree_commit_state(fast_sg, fast_queue) == _tree_commit_state(
                base_sg, base_queue
            )
    assert base_sg.unsubmitted == 0 and rounds >= 5

    # Nothing is ready any more: both refuse with the scheduler's message.
    for sg in (fast_sg, base_sg):
        with pytest.raises(RuntimeError, match="planned 1 nodes but only 0 were ready"):
            _hand_out(sg, 1, worker_id)


def test_leaf_commit_and_take_keep_the_counter_exact():
    """A leaf subgraph is a run one step long: a hand-out takes its one
    node, leaves its queue with its one ready node and refuses a second
    node — as the generic one-node ``Subgraph`` over the oracle's explicit
    leaf does.  The queue drops either before its ``commit``, so neither
    tells the queue anything, and either pin is a store (DESIGN.md §35)."""
    for model in (TreeLSTMModel(), ExplicitTreeModel()):
        scheduler = Scheduler(
            BatchingConfig.with_max_batch(4), submit=lambda task, worker: None
        )
        for cell_type in model.cell_types():
            scheduler.register_cell_type(cell_type)
        queue = scheduler._queues["tree_leaf"]
        request, subgraphs = _partition(model, 0, TreePayload.complete(4), 0)
        first, second, internal, third, _ = subgraphs
        flat = not isinstance(model, ExplicitTreeModel)
        assert type(first) is (LeafSubgraph if flat else Subgraph)
        assert type(internal) is (TreeSubgraph if flat else Subgraph)
        for sg in (first, second, third):
            scheduler.add_subgraph(sg)
        assert queue.num_ready_nodes() == 3 == recount_ready_nodes(queue)

        recorder = RecordingQueueCalls(queue)
        with pytest.raises(RuntimeError, match="planned 0 nodes but only 1 were ready"):
            _hand_out(first, 0)
        assert _hand_out(first) == [0] and first.ready_count == 0
        assert recorder.calls == []
        assert first.unsubmitted == 0 and first.pinned == 0
        assert first.owner is None and first.subgraph_id not in queue.subgraphs
        assert queue.num_ready_nodes() == 2 == recount_ready_nodes(queue)

        with pytest.raises(RuntimeError, match="planned 2 nodes but only 1 were ready"):
            _hand_out(second, 2)
        assert second.ready_count == 1 and second.pinned is None

        assert _hand_out(third) == [3] and third.cell_type_name == "tree_leaf"
        assert third.unsubmitted == 0 and third.pinned == 0 and third.inflight == 1
        assert queue.num_ready_nodes() == 1 == recount_ready_nodes(queue)
        with pytest.raises(RuntimeError, match="planned 1 nodes but only 0 were ready"):
            _hand_out(third)


def test_filtered_retry_reports_the_filtered_subgraphs_and_gathers():
    """The fault path narrows a task to the survivors' share
    (``BatchedTask.retain``).  The plan the task carries must follow, or
    the worker would compare a stale composition and skip the gather copy
    the narrower batch needs."""
    from repro.core.worker import Worker
    from repro.gpu.device import make_devices

    model = LSTMChainModel()
    submitted = []
    scheduler = Scheduler(
        BatchingConfig.with_max_batch(4), submit=lambda task, worker: submitted.append(task)
    )
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    _, first = _queue_chain(model, scheduler, 0, 4)
    _, second = _queue_chain(model, scheduler, 1, 4)
    loop = EventLoop()
    (device,) = make_devices(loop, 1)
    cost_model = model.default_cost_model()
    worker = Worker(0, device, cost_model, on_task_complete=lambda w, t: None)

    scheduler.schedule(worker)
    task = submitted[0]
    assert task.plan == [(first, 1), (second, 1)]
    worker.submit(task)
    assert worker.gathers_performed == 1

    task.prepare_retry()
    task.retain([entry for entry in task.entries if entry[0] is first])
    assert task.plan == [(first, 1)] and task.batch_size == 1
    worker.submit(task)
    assert worker.gathers_performed == 2, "a narrower batch is a new composition"
    assert task.gather_time == cost_model.gather_overhead

    again = BatchedTask(99, task.cell_type, list(task.entries))
    assert again.plan == [(first, 1)]
    worker.submit(again)
    assert worker.gathers_performed == 2, "same composition: no gather"
