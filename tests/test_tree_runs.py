"""Differential suite for flat trees (DESIGN.md, "Flat trees").

``TreeLSTMModel.unfold`` emits one ``TreeRun`` where it used to emit one
explicit node per tree node, and the partition builds slotted
``LeafSubgraph`` / ``TreeSubgraph`` objects where the generic component
search built dict-backed ones.  The per-node unfold lives on as
``tests/oracles/explicit_tree.ExplicitTreeModel``; everything here runs
both and demands the same answer:

(a) the graph *view* by node id — ``len``, census, ``result_refs`` and, for
    every id, ``cell_type_of``, ``inputs_of`` (input order included),
    ``predecessors``, ``successors``, ``subgraph_id_of`` and ``done`` — and
    the partition: subgraph ids, ``node_ids``, release order, ``queue_seq``
    and every task's composition down to an empty system;
(b) whole-run outcome fingerprints (``batch_size_counts`` included) across
    GPU counts, every placement and formation policy, pinning on and off,
    under faults, deadlines, shedding and memory evict-and-restart;
(c) real-compute results against ``reference_forward``;
(d) that a simulated tree is unfolded and partitioned without building a
    single node, and that a parse tree deeper than the recursion limit is
    served;
(e) that the payload is the post-order arrays the node-tree oracles of
    ``tests/oracles/node_tree.py`` flatten to: the sampler's draws, the
    shape queries and the complete trees, and a served run that builds no
    ``TreeNodeSpec`` (DESIGN.md §32).
"""

import random
import sys

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.cell_graph import NodeOutput, TreeRun
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.core.subgraph import (
    LeafSubgraph,
    Subgraph,
    TreeSubgraph,
    partition_into_subgraphs,
)
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.gpu.memory import MemorySpec
from repro.models import TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec, TreePayload
from repro.policies import (
    FORMATION_POLICIES,
    PLACEMENT_POLICIES,
    bundle_from_names,
)
from repro.registry import build_server as build_from_spec
from repro.registry import presets
from repro.workload import LoadGenerator, TreeDataset
from repro.workload.trees import random_parse_tree

from tests.chaos_helpers import (
    assert_invariants,
    chaos_seeds,
    outcome_fingerprint,
    run_chaos,
)
from tests.oracles.closure_parse_tree import closure_parse_tree
from tests.oracles.explicit_tree import ExplicitTreeModel
from tests.oracles.node_tree import (
    complete_tree,
    depth,
    flatten_tree,
    payload_of,
    tree_shape,
)
from tests.test_chain_runs import (
    NOTHING_BUILT,
    assert_same_view,
    count_constructions,
    unfolded,
)

SEEDS = chaos_seeds()


def left_deep(num_leaves):
    spec = TreeNodeSpec(token=0)
    for token in range(1, num_leaves):
        spec = TreeNodeSpec(left=spec, right=TreeNodeSpec(token=token))
    return spec


def right_deep(num_leaves):
    spec = TreeNodeSpec(token=0)
    for token in range(1, num_leaves):
        spec = TreeNodeSpec(left=TreeNodeSpec(token=token), right=spec)
    return spec


def random_tree(seed, num_leaves):
    return random_parse_tree(np.random.default_rng(seed), num_leaves, 50)


TREES = {
    "one_leaf": TreePayload([-1], [-1], [3]),
    "pair": TreePayload.complete(2),
    "complete16": TreePayload.complete(16),
    "left_deep": payload_of(left_deep(9)),
    "right_deep": payload_of(right_deep(9)),  # the internal subgraph's id comes last
    "random7": random_tree(1, 7),
    "random40": random_tree(2, 40),
}


def arrays(payload):
    return payload.left, payload.right, payload.token


# -- (a) graph view and partition ------------------------------------------------


@pytest.mark.parametrize("name", TREES)
def test_graph_view_equals_explicit_tree(name):
    flat_graph, flat_request = unfolded(TreeLSTMModel(), TREES[name])
    ref_graph, ref_request = unfolded(ExplicitTreeModel(), TREES[name])
    assert flat_graph.explicit_nodes() == {} and len(flat_graph.runs()) == 1
    assert_same_view(flat_graph, ref_graph)
    assert flat_graph.subgraph_id_of(0) is None, "not partitioned yet"
    # After the partition, and with the leaves marked done, still alike.
    partition_into_subgraphs(flat_graph, flat_request, start_id=2)
    partition_into_subgraphs(ref_graph, ref_request, start_id=2)
    for graph in (flat_graph, ref_graph):
        for nid in range(len(graph)):
            if not graph.predecessors(nid):
                graph.done[nid] = 1
    assert_same_view(flat_graph, ref_graph)


def test_explicit_consumers_of_tree_nodes_are_linked_and_checked():
    """``add_node`` may read from a tree node, leaf or internal, which has
    no record of its own; the edge shows up in ``successors`` after the
    parent, and the consumer's ``predecessors`` name both children."""
    model = TreeLSTMModel()
    graph, _ = unfolded(model, TreePayload.complete(2))
    leaf_type, internal_type = model.cell_types()
    consumer = graph.add_node(
        internal_type,
        {
            "h_l": NodeOutput(0, "h"),
            "c_l": NodeOutput(0, "c"),
            "h_r": NodeOutput(2, "h"),
            "c_r": NodeOutput(2, "c"),
        },
    )
    assert graph._nodes.keys() == {consumer.node_id}
    assert graph.successors(0) == [2, 3] and graph.successors(2) == [3]
    assert list(graph.explicit_nodes()) == [3] and graph.predecessors(3) == [0, 2]
    assert graph.cell_type_census() == {"tree_leaf": 2, "tree_internal": 2}
    with pytest.raises(ValueError, match="no output 'logits'"):
        graph.add_node(leaf_type, {"ids": NodeOutput(1, "logits")})


def shape(sg):
    return (
        sg.subgraph_id,
        sg.cell_type_name,
        list(sg.node_ids),
        sg.ready_count,
        sg.unsubmitted,
        sg.uncompleted,
        sg.external_pending,
        sg.released,
    )


@pytest.mark.parametrize("name", TREES)
def test_partition_shape_equals_explicit_tree(name):
    flat_graph, flat_request = unfolded(TreeLSTMModel(), TREES[name])
    ref_graph, ref_request = unfolded(ExplicitTreeModel(), TREES[name])
    got = partition_into_subgraphs(flat_graph, flat_request, start_id=5)
    want = partition_into_subgraphs(ref_graph, ref_request, start_id=5)

    assert [shape(sg) for sg in got] == [shape(sg) for sg in want]
    assert {type(sg) for sg in want} == {Subgraph}
    for sg in got:
        assert isinstance(
            sg, LeafSubgraph if sg.cell_type_name == "tree_leaf" else TreeSubgraph
        )
        assert not hasattr(sg, "__dict__") and not hasattr(sg, "_external_edges")
        assert f"Subgraph {sg.subgraph_id} " in repr(sg)
    assert [flat_graph.subgraph_id_of(i) for i in range(len(flat_graph))] == [
        ref_graph.subgraph_id_of(i) for i in range(len(ref_graph))
    ]
    internal = [sg for sg in got if isinstance(sg, TreeSubgraph)]
    assert len(internal) == (1 if len(flat_graph) > 1 else 0)
    assert {sg.internal for sg in got if isinstance(sg, LeafSubgraph)} == {
        internal[0] if internal else None
    }


class Engine:
    """Scheduler + request processor without workers: tasks complete in
    the order the test picks, and every release is written down."""

    def __init__(self, model, pinning):
        self.pending = []
        self.released = []
        self.tasks = []
        config = BatchingConfig.with_max_batch(8)
        self.scheduler = Scheduler(
            config,
            submit=self._submit,
            policies=bundle_from_names(placement=None if pinning else "unpinned"),
        )
        for cell_type in model.cell_types():
            self.scheduler.register_cell_type(cell_type)
        self.processor = RequestProcessor(
            model, on_release=self._release, on_finished=lambda request: None
        )

    def _submit(self, task, worker):
        self.pending.append(task)
        self.tasks.append(
            (worker.worker_id, [(sg.subgraph_id, node_id) for sg, node_id in task.entries])
        )

    def _release(self, *subgraphs):
        self.scheduler.add_subgraph(*subgraphs)
        self.released += [
            (sg.subgraph_id, list(sg.node_ids), sg.queue_seq) for sg in subgraphs
        ]


class FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


@pytest.mark.parametrize("pinning", [True, False])
def test_release_order_queue_seq_and_tasks_equal_explicit_tree(pinning):
    """The same seeded interleaving of arrivals, scheduling rounds and
    completions on both engines: every release (subgraph id, node ids,
    ``queue_seq``) and every task (worker, members) must coincide."""
    engines = [Engine(TreeLSTMModel(), pinning), Engine(ExplicitTreeModel(), pinning)]
    workers = [FakeWorker(0), FakeWorker(1)]
    rng = random.Random(11)
    payloads = list(TREES.values()) + [random_tree(s, 3 + s) for s in range(10, 20)]
    next_request = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.2 and next_request < len(payloads):
            for engine in engines:
                engine.processor.add_request(
                    InferenceRequest(next_request, payloads[next_request], 0.0)
                )
            next_request += 1
        elif roll < 0.6:
            worker = rng.choice(workers)
            for engine in engines:
                engine.scheduler.schedule(worker)
        elif engines[0].pending:
            at = rng.randrange(len(engines[0].pending))
            for engine in engines:
                task = engine.pending.pop(at)
                engine.scheduler.task_completed(task)
                engine.processor.handle_task_completion(task, now=0.0)
        assert engines[0].released == engines[1].released
        assert engines[0].tasks == engines[1].tasks
    assert next_request == len(payloads)
    while engines[0].pending or any(
        queue.num_ready_nodes() for queue in engines[0].scheduler.queues
    ):
        for engine in engines:
            engine.scheduler.schedule(workers[0])
            while engine.pending:
                task = engine.pending.pop(0)
                engine.scheduler.task_completed(task)
                engine.processor.handle_task_completion(task, now=0.0)
    assert engines[0].released == engines[1].released
    assert engines[0].tasks == engines[1].tasks
    for engine in engines:
        assert engine.processor.live_request_count() == 0
    # one_leaf has no internal subgraph; the others each released one
    # after their leaves.
    assert len(engines[0].released) == sum(
        payload.num_leaves() + (payload.num_leaves() > 1) for payload in payloads
    )


# -- (b) outcome fingerprints -----------------------------------------------------


def both(run_one):
    """``run_one(model_cls) -> (server, submitted)`` with the flat model and
    with the oracle; returns both servers after the shared checks."""
    servers = []
    for model_cls in (TreeLSTMModel, ExplicitTreeModel):
        server, submitted = run_one(model_cls)
        assert_invariants(server, submitted)
        servers.append(server)
    flat_server, ref_server = servers
    assert outcome_fingerprint(flat_server) == outcome_fingerprint(ref_server)
    return flat_server, ref_server


def tree_config(max_batch, **kwargs):
    return BatchingConfig.with_max_batch(
        max_batch, per_cell_priority={"tree_internal": 1, "tree_leaf": 0}, **kwargs
    )


@pytest.mark.parametrize("num_gpus", [1, 2, 4])
@pytest.mark.parametrize("placement", [None, *PLACEMENT_POLICIES])
@pytest.mark.parametrize("formation", sorted(FORMATION_POLICIES))
@pytest.mark.parametrize("pinning", [True, False])
def test_fingerprint_across_policies_under_faults(num_gpus, placement, formation, pinning):
    """Every registered placement (``None``: pinned or, with ``pinning``
    off, unpinned) and formation policy, with kernel faults, stragglers, a
    deadline and — where a survivor exists — a device loss.  ``unpinned`` is the
    non-optimistic path: the pending-children counters advance at
    completion, not at submission."""

    def run_one(model_cls):
        config = tree_config(16)
        plan = FaultPlan(
            seed=5,
            kernel_failure_rate=0.04,
            straggler_rate=0.1,
            straggler_multiplier=6.0,
            device_failures=[DeviceFailure(6e-3, 0)] if num_gpus > 1 else [],
        )
        server = BatchMakerServer(
            model_cls(),
            config=config,
            num_gpus=num_gpus,
            fault_plan=plan,
            sla=SLAConfig(default_deadline=40e-3, retry=RetryPolicy(max_retries=2)),
            policies=bundle_from_names(
                placement=placement or (None if pinning else "unpinned"),
                formation=formation,
            ),
        )
        submitted = run_chaos(
            server, rate=2500.0, num_requests=60, dataset=TreeDataset(seed=3)
        )
        return server, submitted

    flat_server, _ = both(run_one)
    assert flat_server.finished
    assert flat_server.fault_counters().device_failures == (num_gpus > 1)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprint_under_fault_storm_deadlines_and_shedding(seed):
    """Kernel faults with retries (``task.entries`` filtered for cancelled
    requests), deadlines (``evict_request`` on queued leaf and internal
    subgraphs), queue-delay shedding and a device loss (repin), at once."""

    def run_one(model_cls):
        plan = FaultPlan(
            seed=seed,
            kernel_failure_rate=0.05,
            straggler_rate=0.1,
            straggler_multiplier=8.0,
            device_failures=[DeviceFailure(8e-3, 0)],
        )
        sla = SLAConfig(
            default_deadline=10e-3,
            max_queue_delay=4e-3,
            retry=RetryPolicy(max_retries=2),
        )
        server = BatchMakerServer(
            model_cls(), config=tree_config(16), num_gpus=2, fault_plan=plan, sla=sla
        )
        submitted = run_chaos(
            server,
            rate=6000.0,
            num_requests=250,
            arrival_seed=seed,
            dataset=TreeDataset(seed=seed),
        )
        return server, submitted

    flat_server, _ = both(run_one)
    counters = flat_server.fault_counters()
    assert counters.retries_attempted > 0 and counters.device_failures == 1
    assert flat_server.timed_out and flat_server.finished and flat_server.rejected


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprint_under_memory_evict_and_restart(seed):
    """A tight device budget: a tree's internal subgraph (of a request
    already holding its leaves' state) evicts less-advanced trees, which
    ``restart_request`` re-unfolds into a fresh ``TreeRun``."""

    def run_one(model_cls):
        config = tree_config(8)
        server = BatchMakerServer(
            model_cls(),
            config=config,
            num_gpus=1,
            memory=MemorySpec(capacity=120 * 1024, state_bytes=1024),
            sla=SLAConfig(retry=RetryPolicy(max_retries=50)),
            policies=bundle_from_names(formation="memory_aware"),
        )
        submitted = run_chaos(
            server,
            rate=4000.0,
            num_requests=120,
            arrival_seed=seed,
            dataset=TreeDataset(seed=seed),
        )
        return server, submitted

    flat_server, ref_server = both(run_one)
    evictions = flat_server.manager.policies.formation.evictions
    assert evictions == ref_server.manager.policies.formation.evictions > 0
    assert flat_server.finished


# -- (c) real compute -----------------------------------------------------------


@pytest.mark.parametrize("placement", [None, "unpinned"])
def test_real_compute_matches_reference_forward(placement):
    rng = np.random.default_rng(3)
    payloads = [
        random_parse_tree(rng, int(rng.integers(1, 12)), 50) for _ in range(10)
    ]
    payloads.append(TreePayload([-1], [-1], [7]))  # no internal subgraph
    payloads.append(TreePayload.complete(16, token=4))
    model = TreeLSTMModel(hidden_dim=16, vocab_size=50, embed_dim=8, real=True, seed=5)
    config = tree_config(4)
    server = BatchMakerServer(
        model,
        config=config,
        num_gpus=2,
        real_compute=True,
        policies=bundle_from_names(placement=placement),
    )
    requests = [
        server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
    ]
    server.drain()
    for request, payload in zip(requests, payloads):
        np.testing.assert_array_equal(
            np.asarray(request.result[0]),
            np.asarray(model.reference_forward(payload)[0]),
        )


# -- (d) nothing is built per node; depth is no limit ------------------------------


def test_simulated_tree_builds_no_nodes(monkeypatch):
    """Unfold + partition of a simulated tree, and a whole served simulated
    run — schedule, complete, finish — construct no node and no input
    reference: tasks carry node ids (DESIGN.md §27).  Sliding back to
    per-node objects fails here, in tier-1, not only in the benchmark
    ledger."""
    model = TreeLSTMModel()
    server = BatchMakerServer(model, config=BatchingConfig.with_max_batch(16), num_gpus=2)
    dataset = TreeDataset(seed=3)
    built = count_constructions(monkeypatch)

    graph, request = unfolded(model, TREES["random40"])
    subgraphs = partition_into_subgraphs(graph, request)
    assert built == NOTHING_BUILT
    assert len(graph._nodes) == len(graph._successors) == 0
    assert len(subgraphs) == 41
    entries = []
    subgraphs[0].commit(1, 0, entries)
    assert entries == [(subgraphs[0], 0)] and built == NOTHING_BUILT

    submitted = run_chaos(server, rate=2500.0, num_requests=60, dataset=dataset)
    assert len(server.finished) == 60
    assert server.stats().nodes_processed > 60 * 10
    assert built == NOTHING_BUILT
    assert_invariants(server, submitted)


def test_flatten_is_post_order_and_add_tree_accepts_it():
    left, right, token = arrays(TREES["random40"])
    assert len(left) == len(right) == len(token) == 79
    for index in range(79):
        if left[index] < 0:
            assert right[index] == -1 and token[index] is not None
        else:
            # Post-order: the right subtree ends just before its parent.
            assert right[index] == index - 1 and left[index] < right[index]
            assert token[index] is None
    graph, _ = unfolded(TreeLSTMModel(), TREES["random40"])
    (tree,) = graph.runs()
    assert isinstance(tree, TreeRun) and (tree.first_id, tree.stop) == (0, 79)
    assert tree.parent.count(-1) == 1 and tree.parent[-1] == -1


def test_deep_tree_is_served_to_completion():
    """A 3000-leaf left-deep parse tree (depth 3000, three times the
    recursion limit) used to raise ``RecursionError`` in ``unfold`` and in
    the payload's ``num_leaves`` / ``num_nodes`` / ``depth`` (now the
    oracle's :func:`~tests.oracles.node_tree.depth`)."""
    leaves = 3000
    assert leaves > sys.getrecursionlimit()
    payload = payload_of(left_deep(leaves))
    assert payload.num_leaves() == leaves
    assert payload.num_nodes() == 2 * leaves - 1
    assert depth(payload) == leaves
    server = build_from_spec(presets.tree_batchmaker_spec())
    request = server.submit(payload, arrival_time=0.0)
    server.drain()
    assert server.finished == [request]
    assert server.stats().nodes_processed == 2 * leaves - 1


def test_deep_tree_real_compute_matches_reference_forward():
    """``reference_forward`` walks the post-order arrays in one loop, so a
    tree deeper than the recursion limit — which it used to recurse into
    and fail on — is checked like any other: the engine's real-compute
    result for a left-deep tree equals it."""
    leaves = sys.getrecursionlimit() + 500
    payload = payload_of(left_deep(leaves))
    model = TreeLSTMModel(hidden_dim=16, vocab_size=leaves, embed_dim=8, real=True, seed=2)
    server = BatchMakerServer(model, config=tree_config(64), real_compute=True)
    request = server.submit(payload, arrival_time=0.0)
    server.drain()
    assert server.finished == [request]
    np.testing.assert_array_equal(
        np.asarray(request.result[0]), np.asarray(model.reference_forward(payload)[0])
    )


# -- (e) the payload is its post-order arrays --------------------------------------


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_flat_sampler_matches_the_recursive_oracle(seed):
    """2 100 (seed, leaf count) cases, 1 to 70 leaves 30 times over: the
    sampler writes the arrays the recursive oracle's tree flattens to, and
    leaves the generator where the oracle leaves it — same draws, same
    order — and the shape queries agree with the oracle's walk."""
    cases = 0
    for case in range(30):
        for leaves in range(1, 71):
            ours = np.random.default_rng([seed, case, leaves])
            theirs = np.random.default_rng([seed, case, leaves])
            got = random_parse_tree(ours, leaves, 97)
            want = closure_parse_tree(theirs, leaves, 97)
            assert arrays(got) == flatten_tree(want)
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert (got.num_leaves(), got.num_nodes(), depth(got)) == tree_shape(want)
            cases += 1
    assert cases >= 2000


DEEP = {  # three times the recursion limit
    "left_deep3000": payload_of(left_deep(3000)),
    "right_deep3000": payload_of(right_deep(3000)),
}


@pytest.mark.parametrize("name", [*TREES, *DEEP])
def test_root_round_trips_to_the_arrays(name):
    """``root`` flattens back to the arrays, and the shape queries agree
    with the oracle's walk, also on the combs deeper than the recursion
    limit."""
    payload = {**TREES, **DEEP}[name]
    assert flatten_tree(payload.root) == arrays(payload)
    assert tree_shape(payload.root) == (
        payload.num_leaves(),
        payload.num_nodes(),
        depth(payload),
    )
    if name in DEEP:
        assert depth(payload) == 3000


@pytest.mark.parametrize("num_leaves", [1, 2, 4, 16, 64])
def test_complete_equals_the_flattened_oracle_tree(num_leaves):
    payload = TreePayload.complete(num_leaves, token=5)
    assert arrays(payload) == flatten_tree(complete_tree(num_leaves, token=5))
    assert depth(payload) == num_leaves.bit_length()


def test_served_tree_run_builds_no_tree_node_spec(monkeypatch):
    """A 300-request ``tree_lstm`` load-generator run — sampling, unfold,
    serving — constructs no ``TreeNodeSpec``: the sampler writes the
    arrays ``add_tree`` reads and nothing reads ``payload.root`` on the way
    (one node object per cell when the payload was a node tree)."""
    server = build_from_spec(presets.tree_batchmaker_spec())
    generator = LoadGenerator(rate=1500.0, num_requests=300, seed=42)
    built = count_constructions(monkeypatch)
    generator.run(server, TreeDataset(seed=43))
    assert len(server.finished) == 300
    assert server.stats().nodes_processed > 300 * 10
    assert built == NOTHING_BUILT
