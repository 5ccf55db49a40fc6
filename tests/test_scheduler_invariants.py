"""Property-based invariant checks on the full serving pipeline.

For randomly generated workloads (model, lengths/shapes, arrival times) and
randomly drawn scheduler configurations (max batch, MaxTasksToSubmit, GPU
count, pinning on/off), instrument every submitted task and assert the
invariants the paper's design depends on:

1.  every request finishes, with arrival <= start <= finish;
2.  every unfolded cell executes in exactly one batched task;
3.  every task is homogeneous in cell type and within the type's max batch;
4.  dependencies are respected: a node's predecessor task either retired
    before the node's task was submitted, or was submitted earlier to the
    *same* worker (whose FIFO stream then orders them) — the exact
    correctness argument of §4.3;
5.  with pinning disabled, only the strict completion-order variant of (4)
    is allowed across workers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchMakerServer, BatchingConfig
from repro.extension import EngineExtension
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec
from repro.policies import bundle_from_names
from tests.oracles.node_tree import payload_of
from tests.retention_helpers import keep_engine_state


def instrument(server):
    """Record every task in submission order; returns the list and a
    :class:`TaskTimes` observer installed on the engine."""
    records = []
    scheduler = server.manager.scheduler
    original = scheduler._submit

    def recording_submit(task, worker):
        records.append(task)
        original(task, worker)

    scheduler._submit = recording_submit
    times = TaskTimes()
    server.manager.install(times)
    return records, times


class TaskTimes(EngineExtension):
    """The instant each task was submitted and the instant it retired, read
    at ``loop.now()`` as the engine's hooks report them."""

    def attach(self, engine) -> None:
        self.loop = engine.loop
        self.submitted, self.retired = {}, {}

    def on_task_submit(self, task, worker) -> None:
        self.submitted[task] = self.loop.now()

    def on_task_done(self, task) -> None:
        self.retired[task] = self.loop.now()


def payloads_for(kind, lengths, rng):
    if kind == "lstm":
        return LSTMChainModel(), list(lengths)
    if kind == "seq2seq":
        model = Seq2SeqModel()
        return model, [
            {"src": n, "tgt_len": 1 + (n % 4)} for n in lengths
        ]
    if kind == "seq2seq-dynamic":
        model = Seq2SeqModel()
        return model, [
            {"src": n, "dynamic": True, "max_decode": 1 + (n % 5)} for n in lengths
        ]
    if kind == "tree":
        model = TreeLSTMModel()

        def tree(leaves):
            def build(count):
                if count == 1:
                    return TreeNodeSpec(token=0)
                split = 1 + int(rng.integers(0, count - 1))
                return TreeNodeSpec(left=build(split), right=build(count - split))

            return payload_of(build(leaves))

        return model, [tree(n) for n in lengths]
    raise AssertionError(kind)


workload_strategy = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["lstm", "seq2seq", "seq2seq-dynamic", "tree"]),
        "lengths": st.lists(st.integers(1, 10), min_size=1, max_size=12),
        "max_batch": st.sampled_from([1, 2, 4, 8]),
        "max_tasks": st.sampled_from([1, 2, 5]),
        "num_gpus": st.integers(1, 3),
        "pinning": st.booleans(),
        "seed": st.integers(0, 10000),
        "spread": st.floats(0.0, 0.01),
    }
)


@settings(max_examples=60, deadline=None)
@given(spec=workload_strategy)
def test_serving_invariants(spec):
    rng = np.random.default_rng(spec["seed"])
    model, payloads = payloads_for(spec["kind"], spec["lengths"], rng)
    config = BatchingConfig.with_max_batch(
        spec["max_batch"],
        max_tasks_to_submit=spec["max_tasks"],
    )
    server = BatchMakerServer(
        model,
        config=config,
        num_gpus=spec["num_gpus"],
        policies=None if spec["pinning"] else bundle_from_names(placement="unpinned"),
    )
    tasks, times = instrument(server)
    keep = keep_engine_state(server)

    requests = []
    t = 0.0
    for payload in payloads:
        t += float(rng.uniform(0, spec["spread"]))
        requests.append(server.submit(payload, arrival_time=t))
    server.drain()

    # Invariant 1: completion and time ordering.
    assert len(server.finished) == len(requests)
    for request in requests:
        assert request.arrival_time <= request.start_time <= request.finish_time

    # Invariant 2: each node in exactly one task.
    node_to_task = {}
    for task in tasks:
        for subgraph, node_id in task.entries:
            key = (subgraph.request.request_id, node_id)
            assert key not in node_to_task, "node executed twice"
            node_to_task[key] = task
    total_nodes = sum(len(keep.graph(r)) for r in requests)
    assert len(node_to_task) == total_nodes

    # Invariant 3: homogeneity and batch caps.
    for task in tasks:
        assert task.batch_size <= config.for_cell(task.cell_type.name).max_batch
        assert all(
            sg.graph.cell_type_of(nid).name == task.cell_type.name
            for sg, nid in task.entries
        )

    # Invariants 4/5: dependency ordering.
    submit_index = {id(task): i for i, task in enumerate(tasks)}
    for task in tasks:
        for subgraph, node_id in task.entries:
            for pred_id in subgraph.graph.predecessors(node_id):
                pred_key = (subgraph.request.request_id, pred_id)
                pred_task = node_to_task[pred_key]
                if pred_task is task:
                    continue  # same task: impossible for dependent cells
                same_worker = pred_task.worker_id == task.worker_id
                retired_first = (
                    times.retired[pred_task] <= times.submitted[task] + 1e-12
                )
                if same_worker:
                    assert submit_index[id(pred_task)] < submit_index[id(task)]
                else:
                    assert retired_first, (
                        "cross-worker dependency not serialised by completion"
                    )

    # No dependent cells may share one task (a cell's input cannot be
    # produced by the same kernel launch).
    for task in tasks:
        ids_in_task = {
            (sg.request.request_id, node_id) for sg, node_id in task.entries
        }
        for subgraph, node_id in task.entries:
            for pred_id in subgraph.graph.predecessors(node_id):
                assert (subgraph.request.request_id, pred_id) not in ids_in_task


@settings(max_examples=20, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=2, max_size=15),
    seed=st.integers(0, 1000),
)
def test_real_compute_matches_reference_randomised(lengths, seed):
    """Random lengths + random arrivals: batched results == direct forward."""
    model = LSTMChainModel(
        hidden_dim=8, vocab_size=20, embed_dim=4, real=True,
        project_output=True, seed=3,
    )
    server = BatchMakerServer(
        model, config=BatchingConfig.with_max_batch(4), real_compute=True
    )
    rng = np.random.default_rng(seed)
    payloads = [
        [int(x) for x in rng.integers(0, 20, size=n)] for n in lengths
    ]
    requests = [
        server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
    ]
    server.drain()
    for request, payload in zip(requests, payloads):
        expected = model.reference_forward(payload)[0]
        got = int(np.asarray(request.result[0]).reshape(()))
        assert got == int(expected)
