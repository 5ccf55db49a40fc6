"""Property-style tests for the incremental ready-count accounting.

After *any* interleaving of subgraph releases, ``take_ready`` /
``mark_submitted`` (scheduling), and ``task_done`` / completion propagation
on LSTM-chain, Seq2Seq and TreeLSTM partitions, two invariants must hold
for every cell-type queue:

1. the incremental counter equals a brute-force recount of
   ``ready_count()`` over the queued subgraphs, and
2. the indexed (heap-based) ``FormBatchedTask`` plans exactly what the
   brute-force FIFO scan plans, for every worker, without mutating state.

LSTM chains are run-backed subgraphs (``RunSubgraph``: readiness is a
cursor, not per-node counts); the same two invariants are asserted for them
at every step, plus the cursor's own: the ready node, when there is one, is
the first node not yet submitted.
"""

import random

import pytest

from repro.core.cell_graph import CellGraph
from repro.core.config import BatchingConfig
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.core.subgraph import RunSubgraph, partition_into_subgraphs
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec, TreePayload


class FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


def _payload(model, rng):
    if isinstance(model, LSTMChainModel):
        return rng.randint(1, 12)
    if isinstance(model, Seq2SeqModel):
        return {"src": rng.randint(1, 8), "tgt_len": rng.randint(1, 8)}
    return TreePayload(TreeNodeSpec.complete(2 ** rng.randint(0, 3)))


class Harness:
    """Scheduler + request processor, no workers/event loop: the test picks
    which pending task completes next, in any order."""

    def __init__(self, model, config, num_workers):
        self.pending = []
        self.scheduler = Scheduler(
            config, submit=lambda task, worker: self.pending.append(task)
        )
        for cell_type in model.cell_types():
            self.scheduler.register_cell_type(cell_type)
        self.processor = RequestProcessor(
            model,
            on_release=self.scheduler.add_subgraph,
            on_finished=lambda request: None,
        )
        self.workers = [FakeWorker(i) for i in range(num_workers)]
        self._next_request_id = 0
        self.run_backed_checks = 0  # queued RunSubgraphs seen by assert_invariants

    def add_request(self, payload):
        request = InferenceRequest(self._next_request_id, payload, 0.0)
        self._next_request_id += 1
        self.processor.add_request(request)

    def schedule(self, rng):
        self.scheduler.schedule(rng.choice(self.workers))

    def complete_one(self, rng):
        if not self.pending:
            return
        task = self.pending.pop(rng.randrange(len(self.pending)))
        self.scheduler.task_completed(task)
        self.processor.handle_task_completion(task, now=0.0)

    # -- invariants ---------------------------------------------------------

    def assert_invariants(self):
        total = 0
        for queue in self.scheduler._queue_list:
            for sg in queue.subgraphs.values():
                if isinstance(sg, RunSubgraph):
                    self.run_backed_checks += 1
                    assert sg.ready_count() in (0, 1)
                    if sg.ready_count():
                        assert sg._cursor == sg.run.stop - sg.unsubmitted
            recount = queue.recount_ready_nodes()
            assert queue.num_ready_nodes() == recount, (
                f"{queue.cell_type.name}: counter {queue.num_ready_nodes()} "
                f"!= brute-force recount {recount}"
            )
            assert queue._ready_total == recount
            total += recount
            for worker in self.workers:
                fast = self.scheduler._form_batched_task(queue, worker)
                reference = self.scheduler._form_batched_task_reference(
                    queue, worker
                )
                assert [(sg.subgraph_id, n) for sg, n in fast] == [
                    (sg.subgraph_id, n) for sg, n in reference
                ], f"{queue.cell_type.name} plan mismatch for worker {worker.worker_id}"
                # Planning must be side-effect free.
                assert queue._ready_total == recount
                assert queue.recount_ready_nodes() == recount
        assert self.scheduler.total_ready_nodes() == total


MODELS = [
    ("lstm_chain", LSTMChainModel, 4),
    ("lstm_chain_proj", lambda: LSTMChainModel(project_output=True), 4),
    ("seq2seq", Seq2SeqModel, 16),
    ("tree_lstm", TreeLSTMModel, 4),
]


@pytest.mark.parametrize("name,model_cls,max_batch", MODELS)
@pytest.mark.parametrize("pinning", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ready_count_invariants_under_random_interleavings(
    name, model_cls, max_batch, pinning, seed
):
    rng = random.Random(hash((name, pinning, seed)) & 0xFFFFFFFF)
    model = model_cls()
    config = BatchingConfig.with_max_batch(
        max_batch, max_tasks_to_submit=2, pinning=pinning
    )
    harness = Harness(model, config, num_workers=3)

    for step in range(120):
        roll = rng.random()
        if roll < 0.35:
            harness.add_request(_payload(model, rng))
        elif roll < 0.70:
            harness.schedule(rng)
        else:
            harness.complete_one(rng)
        harness.assert_invariants()

    # Drain: complete everything, scheduling along the way; the counters
    # must hold all the way down to an empty system.
    guard = 0
    while harness.pending or harness.scheduler.total_ready_nodes() > 0:
        harness.schedule(rng)
        harness.complete_one(rng)
        harness.assert_invariants()
        guard += 1
        assert guard < 5000, "drain did not converge"
    for queue in harness.scheduler._queue_list:
        assert queue.num_ready_nodes() == 0
    if isinstance(model, LSTMChainModel):
        assert harness.run_backed_checks > 100, "chains were not run-backed"
    else:
        assert harness.run_backed_checks == 0


def _chain_scheduler():
    model = LSTMChainModel()
    scheduler = Scheduler(
        BatchingConfig.with_max_batch(4), submit=lambda task, worker: None
    )
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    return model, scheduler, scheduler.queue_for("lstm")


def _queue_chain(model, scheduler, request_id, length):
    """Unfold, partition and enqueue one chain; returns (request, subgraph)."""
    graph = CellGraph()
    model.unfold(graph, length)
    request = InferenceRequest(request_id, length, 0.0)
    request.graph = graph
    (sg,) = partition_into_subgraphs(graph, request, start_id=request_id)
    assert isinstance(sg, RunSubgraph)
    request.subgraphs = {sg.subgraph_id: sg}
    scheduler.add_subgraph(sg)
    return request, sg


def test_take_ready_notifies_owner_exactly_once():
    """Unit check on the delta protocol: direct take/mark cycles on a chain
    subgraph keep its queue's counter exact."""
    model, scheduler, queue = _chain_scheduler()
    _, sg = _queue_chain(model, scheduler, 0, 6)

    assert queue.num_ready_nodes() == 1
    taken = sg.take_ready(1)
    assert queue.num_ready_nodes() == 0
    sg.mark_submitted(taken)  # optimistic: successor becomes ready
    assert queue.num_ready_nodes() == 1 == queue.recount_ready_nodes()


def test_run_cursor_keeps_counter_exact_without_optimism_and_on_eviction():
    """The same delta protocol on the completion-ordered path (the cursor
    advances in ``mark_completed_internal``), down to the last node, and
    when a queued run subgraph is evicted with its ready node untaken."""
    model, scheduler, queue = _chain_scheduler()

    _, sg = _queue_chain(model, scheduler, 0, 3)
    sg.optimistic = False
    for nid in range(3):
        assert queue.num_ready_nodes() == 1 == queue.recount_ready_nodes()
        assert sg.take_ready(4) == [nid]
        sg.mark_submitted([nid])
        assert queue.num_ready_nodes() == 0 == queue.recount_ready_nodes()
        sg.mark_completed_internal([nid])
    assert sg.exhausted() and sg.ready_count() == 0
    assert queue.num_ready_nodes() == 0 == queue.recount_ready_nodes()
    queue.remove(sg)

    request, sg = _queue_chain(model, scheduler, 1, 5)
    sg.mark_submitted(sg.take_ready(1))
    assert queue.num_ready_nodes() == 1
    assert scheduler.evict_request(request) == 1
    assert queue.num_ready_nodes() == 0 == queue.recount_ready_nodes()
    assert sg.owner is None
