"""Differential suite for run-length chains (DESIGN.md, "Run-length chains").

``LSTMChainModel.unfold`` emits one ``ChainRun`` where it used to emit one
explicit node per token, and so do the GRU chain, the Seq2Seq encoder and
static decoder, the attention encoder and the beam encoder (DESIGN.md §33).
The per-step unfolds live on in ``tests/oracles/explicit_chain.py``;
everything here runs both and demands the same answer:

(a) the graph *view* by node id — ``len``, census, ``result_refs`` and, for
    every id, ``cell_type_of``, ``inputs_of`` (input order included),
    ``predecessors``, ``successors``, ``subgraph_id_of`` and ``done`` — and
    the partition shape;
(b) whole-run outcome fingerprints across placement policies, GPU counts,
    the chaos seed matrix (kernel faults, deadlines, device loss) and
    memory evict-and-restart;
(c) real-compute results against ``reference_forward``;
(d) that a simulated chain is unfolded, partitioned and served without
    building a single node, and a static Seq2Seq request unfolded without
    one.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core import cell_graph
from repro.core.cell_graph import CellGraph, NodeOutput
from repro.core.request import InferenceRequest, RequestState
from repro.core.subgraph import RunSubgraph, partition_into_subgraphs
from repro.faults import DeviceFailure, FaultPlan, RetryPolicy, SLAConfig
from repro.gpu.memory import MemorySpec
from repro.models import (
    AttentionSeq2SeqModel,
    BeamSeq2SeqModel,
    GRUChainModel,
    LSTMChainModel,
    Seq2SeqModel,
)
from repro.models.tree_lstm import TreeNodeSpec
from repro.policies import bundle_from_names

from tests.chaos_helpers import (
    assert_invariants,
    build_server,
    chaos_seeds,
    outcome_fingerprint,
    run_chaos,
)
from repro.workload import Seq2SeqDataset, SequenceDataset
from tests.oracles.explicit_chain import (
    ExplicitAttentionModel,
    ExplicitBeamModel,
    ExplicitChainModel,
    ExplicitGRUModel,
    ExplicitSeq2SeqModel,
)

SEEDS = chaos_seeds()


class BeamDataset:
    """Seq2Seq lengths as beam payloads: the target length bounds the steps."""

    def __init__(self, seed):
        self._pairs = Seq2SeqDataset(seed=seed, max_length=12)

    def sample_one(self):
        pair = self._pairs.sample_one()
        return {"src": pair["src"], "max_steps": pair["tgt_len"]}


class Chain(NamedTuple):
    """A run-backed model beside the LSTM chain, and how to test it."""

    model: Callable  # the run-length model class
    oracle: Callable  # its per-step twin in tests/oracles/explicit_chain.py
    kwargs: dict  # for both
    payloads: list  # graph-view cases
    dataset: Callable  # seed -> the traffic served
    storm_rate: float  # arrivals per second under the fault storm
    real: dict  # the real-compute model's keyword arguments


S2S_REAL = dict(hidden_dim=12, src_vocab_size=30, tgt_vocab_size=30, embed_dim=6, seed=4)
OTHER_CHAINS = {
    "gru": Chain(
        GRUChainModel, ExplicitGRUModel, {}, [1, 2, 57, [7, 3, 9, 4]],
        lambda seed: SequenceDataset(seed=seed), 3000.0,
        dict(hidden_dim=12, vocab_size=30, embed_dim=6, seed=4),
    ),
    "seq2seq": Chain(
        Seq2SeqModel, ExplicitSeq2SeqModel, {},
        [{"src": 1, "tgt_len": 1}, {"src": 3, "tgt_len": 5}, (40, 2),
         {"src": [5, 6, 7], "tgt_len": 4}],
        lambda seed: Seq2SeqDataset(seed=seed, max_length=20), 1500.0, S2S_REAL,
    ),
    "seq2seq_dynamic": Chain(
        Seq2SeqModel, ExplicitSeq2SeqModel, {"dynamic": True},
        [{"src": 1, "max_decode": 1}, {"src": 3, "max_decode": 5},
         {"src": [5, 6, 7], "tgt_len": 4}],
        lambda seed: Seq2SeqDataset(seed=seed, max_length=20, dynamic=True), 1500.0,
        S2S_REAL,
    ),
    "attention": Chain(
        AttentionSeq2SeqModel, ExplicitAttentionModel, {"max_src": 24},
        [{"src": 1, "tgt_len": 1}, {"src": 3, "tgt_len": 5}, {"src": [5, 6, 7], "tgt_len": 2}],
        lambda seed: Seq2SeqDataset(seed=seed, max_length=20), 1500.0, S2S_REAL,
    ),
    "beam": Chain(
        BeamSeq2SeqModel, ExplicitBeamModel, {"beam_width": 3},
        [{"src": 1, "max_steps": 1}, {"src": 4, "max_steps": 3}, {"src": [5, 6, 7]}],
        BeamDataset, 400.0, S2S_REAL,
    ),
}


def unfolded(model, payload):
    graph = CellGraph()
    model.unfold(graph, payload)
    request = InferenceRequest(0, payload, 0.0)
    request.graph = graph
    return graph, request


def ref_view(ref):
    if isinstance(ref, NodeOutput):
        return ("node", ref.node_id, ref.output)
    return ("value", ref.value)


def inputs_view(inputs):
    return {name: ref_view(ref) for name, ref in inputs.items()}


def assert_same_view(got_graph, want_graph):
    """Both graphs answer every by-id question alike (shared with
    ``tests/test_tree_runs.py``); an id neither holds raises KeyError."""
    assert len(got_graph) == len(want_graph)
    assert got_graph.cell_type_census() == want_graph.cell_type_census()
    assert got_graph.result_refs == want_graph.result_refs
    assert got_graph.done == want_graph.done
    assert got_graph.outputs == want_graph.outputs
    for nid in range(len(want_graph)):
        assert nid in got_graph
        assert got_graph.cell_type_of(nid).name == want_graph.cell_type_of(nid).name
        got, want = got_graph.inputs_of(nid), want_graph.inputs_of(nid)
        assert list(got) == list(want), "input order"
        assert inputs_view(got) == inputs_view(want)
        assert got_graph.predecessors(nid) == want_graph.predecessors(nid)
        assert list(got_graph.successors(nid)) == list(want_graph.successors(nid))
        assert got_graph.subgraph_id_of(nid) == want_graph.subgraph_id_of(nid)
    beyond = len(want_graph)
    assert beyond not in got_graph and beyond not in want_graph
    for graph in (got_graph, want_graph):
        for view in (
            graph.cell_type_of, graph.inputs_of, graph.predecessors,
            graph.successors, graph.subgraph_id_of,
        ):
            with pytest.raises(KeyError):
                view(beyond)


def shape(sg):
    """What the scheduler sees of a fresh subgraph."""
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


# -- (a) graph view -----------------------------------------------------------


@pytest.mark.parametrize("project_output", [False, True])
@pytest.mark.parametrize("payload", [1, 2, 330, [7, 3, 9, 4]])
def test_graph_view_equals_explicit_chain(payload, project_output):
    run_graph, run_request = unfolded(LSTMChainModel(project_output=project_output), payload)
    ref_graph, ref_request = unfolded(
        ExplicitChainModel(project_output=project_output), payload
    )
    assert_same_view(run_graph, ref_graph)
    assert run_graph.subgraph_id_of(0) is None, "not partitioned yet"
    # After the partition, and with the last node marked done, still alike.
    partition_into_subgraphs(run_graph, run_request, start_id=3)
    partition_into_subgraphs(ref_graph, ref_request, start_id=3)
    for graph in (run_graph, ref_graph):
        graph.done[len(graph) - 1] = 1
    assert_same_view(run_graph, ref_graph)


@pytest.mark.parametrize("project_output", [False, True])
@pytest.mark.parametrize("length", [1, 2, 330])
def test_partition_shape_equals_explicit_chain(length, project_output):
    run_graph, run_request = unfolded(
        LSTMChainModel(project_output=project_output), length
    )
    ref_graph, ref_request = unfolded(
        ExplicitChainModel(project_output=project_output), length
    )
    got = partition_into_subgraphs(run_graph, run_request, start_id=5)
    want = partition_into_subgraphs(ref_graph, ref_request, start_id=5)
    assert [shape(sg) for sg in got] == [shape(sg) for sg in want]
    assert isinstance(got[0], RunSubgraph) and got[0].node_ids == range(length)
    assert not hasattr(got[0], "_internal_pending")
    for graph in (run_graph, ref_graph):
        assert [graph.subgraph_id_of(i) for i in range(len(graph))] == [5] * length + (
            [6] if project_output else []
        )


# -- (b) outcome fingerprints -----------------------------------------------------


def both(run_one, pair=(LSTMChainModel, ExplicitChainModel)):
    """``run_one(model_cls) -> (server, submitted)`` with the run-length
    model and with the oracle; returns both servers after the shared checks."""
    servers = []
    for model_cls in pair:
        server, submitted = run_one(model_cls)
        assert_invariants(server, submitted)
        servers.append(server)
    run_server, ref_server = servers
    assert outcome_fingerprint(run_server) == outcome_fingerprint(ref_server)
    return run_server, ref_server


@pytest.mark.parametrize("num_gpus", [1, 2])
@pytest.mark.parametrize("placement", [None, "unpinned", "fixed"])
@pytest.mark.parametrize("project_output", [False, True])
def test_fingerprint_across_placements(project_output, placement, num_gpus):
    """``unpinned`` is the non-optimistic path: the cursor advances in
    ``mark_completed_internal``, not at submission."""

    def run_one(model_cls):
        config = BatchingConfig.with_max_batch(16)
        server = BatchMakerServer(
            model_cls(project_output=project_output),
            config=config,
            num_gpus=num_gpus,
            policies=bundle_from_names(placement=placement),
        )
        return server, run_chaos(server, num_requests=150)

    run_server, _ = both(run_one)
    assert len(run_server.finished) == 150


def storm_server(seed, model):
    """Two GPUs under kernel faults with retries, stragglers, deadlines and
    the loss of device 0."""
    plan = FaultPlan(
        seed=seed,
        kernel_failure_rate=0.05,
        straggler_rate=0.1,
        straggler_multiplier=8.0,
        device_failures=[DeviceFailure(8e-3, 0)],
    )
    sla = SLAConfig(default_deadline=15e-3, retry=RetryPolicy(max_retries=2))
    return build_server(fault_plan=plan, sla=sla, num_gpus=2, max_batch=16, model=model)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("project_output", [False, True])
def test_fingerprint_under_fault_storm(project_output, seed):
    """Kernel faults with retries (``task.entries`` filtered for cancelled
    requests), deadlines (``evict_request`` on queued run subgraphs) and a
    device loss (repin), all at once, on two GPUs."""

    def run_one(model_cls):
        server = storm_server(seed, model_cls(project_output=project_output))
        return server, run_chaos(server, arrival_seed=seed)

    run_server, _ = both(run_one)
    counters = run_server.fault_counters()
    assert counters.retries_attempted > 0 and counters.device_failures == 1
    assert run_server.timed_out and run_server.finished


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprint_under_memory_evict_and_restart(seed):
    """A tight device budget makes the projection step (a second subgraph
    of a request already holding state) evict less-advanced chains, which
    ``restart_request`` re-unfolds from scratch."""

    def run_one(model_cls):
        config = BatchingConfig.with_max_batch(8)
        server = BatchMakerServer(
            model_cls(project_output=True),
            config=config,
            num_gpus=1,
            memory=MemorySpec(capacity=6 * 1024, state_bytes=1024),
            sla=SLAConfig(retry=RetryPolicy(max_retries=50)),
            policies=bundle_from_names(formation="memory_aware"),
        )
        return server, run_chaos(server, rate=4000.0, num_requests=120, arrival_seed=seed)

    run_server, ref_server = both(run_one)
    evictions = run_server.manager.policies.formation.evictions
    assert evictions == ref_server.manager.policies.formation.evictions > 0
    assert run_server.finished


# -- (c) real compute -----------------------------------------------------------


@pytest.mark.parametrize("project_output", [False, True])
@pytest.mark.parametrize("placement", [None, "unpinned"])
def test_real_compute_matches_reference_forward(project_output, placement):
    rng = np.random.default_rng(3)
    payloads = [
        [int(t) for t in rng.integers(0, 50, size=rng.integers(1, 15))]
        for _ in range(12)
    ]
    model = LSTMChainModel(
        hidden_dim=16, vocab_size=50, embed_dim=8, real=True,
        project_output=project_output, seed=5,
    )
    config = BatchingConfig.with_max_batch(4)
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


# -- (d) nothing is built per cell ------------------------------------------------


def count_constructions(monkeypatch):
    """Counts, by class name, of graph objects and parse-tree nodes
    constructed from now on (shared with ``tests/test_tree_runs.py``)."""
    built = dict(NOTHING_BUILT)

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built[cls.__name__] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (
        cell_graph.CellNode,
        cell_graph.NodeOutput,
        cell_graph.ValueInput,
        TreeNodeSpec,
    ):
        counting(cls)
    return built


NOTHING_BUILT = {"CellNode": 0, "NodeOutput": 0, "ValueInput": 0, "TreeNodeSpec": 0}


def test_simulated_chain_builds_no_nodes(monkeypatch):
    """Unfold + partition of a simulated length-300 chain, and a whole
    served simulated run — schedule, complete, finish — construct no node
    and no input reference (step 0's zero state is the model's, shared by
    every request): a task carries node ids and completion is a byte of the
    graph's ``done`` bitmap (DESIGN.md §27).  Sliding back to per-cell
    objects fails here, in tier-1, not only in the benchmark ledger."""
    model = LSTMChainModel()  # before counting: it owns the zero state
    server = BatchMakerServer(model, config=BatchingConfig.with_max_batch(16), num_gpus=2)
    built = count_constructions(monkeypatch)

    graph, request = unfolded(model, 300)
    (sg,) = partition_into_subgraphs(graph, request)
    assert built == NOTHING_BUILT
    assert len(graph._nodes) == len(graph._successors) == 0
    assert len(sg.node_ids) == 300 and sg.ready_count == 1
    entries = []
    sg.commit(1, 0, entries)
    assert entries == [(sg, 0)] and built == NOTHING_BUILT

    submitted = run_chaos(server, num_requests=100)
    assert len(server.finished) == 100
    assert server.stats().nodes_processed > 100 * 10
    assert built == NOTHING_BUILT
    assert_invariants(server, submitted)


def test_per_request_bytes_do_not_grow_with_length():
    """The same guard in bytes: beyond the payload-sized token list and the
    graph's completion bitmap (one byte per node id, DESIGN.md §27), a
    simulated chain costs the same whether it has 30 steps or 3000."""
    import tracemalloc

    model = LSTMChainModel()

    def request_bytes(length):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        graph, request = unfolded(model, length)
        subgraphs = partition_into_subgraphs(graph, request)
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert len(subgraphs) == 1
        return after - before

    short, long = request_bytes(30), request_bytes(3000)
    token_list = 8 * (3000 - 30)  # tokens_field: one pointer per step
    done_bitmap = 3000 - 30  # CellGraph.done: one byte per step
    assert long - short <= token_list + done_bitmap + 256, (short, long)
    assert short < 4096, short


# -- the other run-backed models (DESIGN.md §33) ----------------------------------

OTHER = sorted(OTHER_CHAINS)


def other_pair(name, **extra):
    """Factories of the run-length model ``name`` and of its oracle."""
    chain = OTHER_CHAINS[name]
    return tuple(
        (lambda cls=cls: cls(**chain.kwargs, **extra)) for cls in (chain.model, chain.oracle)
    )


@pytest.mark.parametrize(
    "name,payload", [(name, p) for name in OTHER for p in OTHER_CHAINS[name].payloads]
)
def test_other_chain_view_and_partition_equal_explicit_oracle(name, payload):
    """(a) for each converted model: the view before and after the
    partition, the partition's shape, and the view once the last node's
    completion has extended the graph (a dynamic decoder, a beam step)."""
    models = [make() for make in other_pair(name)]
    (run_graph, run_request), (ref_graph, ref_request) = (
        unfolded(model, payload) for model in models
    )
    assert run_graph.runs() and not ref_graph.runs()
    assert_same_view(run_graph, ref_graph)
    got = partition_into_subgraphs(run_graph, run_request, start_id=3)
    want = partition_into_subgraphs(ref_graph, ref_request, start_id=3)
    assert [shape(sg) for sg in got] == [shape(sg) for sg in want]
    assert isinstance(got[0], RunSubgraph)
    assert_same_view(run_graph, ref_graph)

    grown = []
    for model, (graph, request), subgraphs in zip(
        models, ((run_graph, run_request), (ref_graph, ref_request)), (got, want)
    ):
        graph.done[len(graph) - 1] = 1
        nodes = model.extend(graph, len(graph) - 1, payload)
        start = 3 + len(subgraphs)
        grown.append(partition_into_subgraphs(graph, request, nodes, start) if nodes else [])
    assert [shape(sg) for sg in grown[0]] == [shape(sg) for sg in grown[1]]
    assert_same_view(run_graph, ref_graph)


@pytest.mark.parametrize("num_gpus", [1, 2])
@pytest.mark.parametrize("placement", [None, "unpinned", "fixed"])
@pytest.mark.parametrize("name", OTHER)
def test_other_chain_fingerprint_across_placements(name, placement, num_gpus):
    dataset = OTHER_CHAINS[name].dataset

    def run_one(make_model):
        server = BatchMakerServer(
            make_model(),
            config=BatchingConfig.with_max_batch(16),
            num_gpus=num_gpus,
            policies=bundle_from_names(placement=placement),
        )
        return server, run_chaos(server, num_requests=80, dataset=dataset(1))

    run_server, _ = both(run_one, other_pair(name))
    assert len(run_server.finished) == 80


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", OTHER)
def test_other_chain_fingerprint_under_fault_storm(name, seed):
    chain = OTHER_CHAINS[name]

    def run_one(make_model):
        server = storm_server(seed, make_model())
        return server, run_chaos(
            server, rate=chain.storm_rate, arrival_seed=seed, dataset=chain.dataset(seed)
        )

    run_server, _ = both(run_one, other_pair(name))
    counters = run_server.fault_counters()
    assert counters.retries_attempted > 0 and counters.device_failures == 1
    assert run_server.timed_out and run_server.finished


@pytest.mark.parametrize("placement", [None, "unpinned"])
@pytest.mark.parametrize("name", OTHER)
def test_other_chain_real_compute_equals_explicit_oracle(name, placement):
    """(c) bit-equal results, real tokens through real cells."""
    rng = np.random.default_rng(3)
    dataset = OTHER_CHAINS[name].dataset(5)

    def tokens(length):
        return [int(t) for t in rng.integers(3, 30, size=min(length, 12))]

    payloads = []
    for _ in range(10):
        payload = dataset.sample_one()
        if isinstance(payload, dict):
            payloads.append({**payload, "src": tokens(payload["src"])})
        else:
            payloads.append(tokens(payload))
    results = []
    for make_model in other_pair(name, real=True, **OTHER_CHAINS[name].real):
        server = BatchMakerServer(
            make_model(),
            config=BatchingConfig.with_max_batch(4),
            num_gpus=2,
            real_compute=True,
            policies=bundle_from_names(placement=placement),
        )
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        assert [r.state for r in requests] == [RequestState.FINISHED] * len(payloads)
        results.append([[np.asarray(value) for value in r.result] for r in requests])
    run_results, ref_results = results
    for got, want in zip(run_results, ref_results):
        assert len(got) == len(want)
        for got_value, want_value in zip(got, want):
            np.testing.assert_array_equal(got_value, want_value)


@pytest.mark.parametrize(
    "name,payload,references",
    [("gru", 300, 0), ("seq2seq", {"src": 40, "tgt_len": 30}, 2)],
)
def test_static_unfold_builds_no_cell_node(name, payload, references, monkeypatch):
    """(d) a simulated GRU chain, and a static Seq2Seq request's encoder
    and decoder, are runs: unfold and partition build no node, and the
    only references built are the decoder's two reads of the encoder's
    last state."""
    model = OTHER_CHAINS[name].model()  # before counting: it owns the zero state
    built = count_constructions(monkeypatch)
    graph, request = unfolded(model, payload)
    subgraphs = partition_into_subgraphs(graph, request)
    assert built == dict(NOTHING_BUILT, NodeOutput=references)
    assert not graph.explicit_nodes()
    assert all(isinstance(sg, RunSubgraph) for sg in subgraphs)
