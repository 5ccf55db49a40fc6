"""Tests for Subgraph scheduling state: readiness, pinning, release."""

import pytest

from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph
from repro.core.config import BatchingConfig
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.core.subgraph import (
    LeafSubgraph,
    RunSubgraph,
    Subgraph,
    TreeSubgraph,
    partition_into_subgraphs,
)
from repro.core.task import BatchedTask
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload
from repro.policies import bundle_from_names
from tests.oracles.explicit_chain import ExplicitChainModel


def chain_subgraph(length=5, model_cls=LSTMChainModel):
    model = model_cls()
    graph = CellGraph()
    model.unfold(graph, length)
    request = InferenceRequest(0, length, 0.0)
    request.graph = graph
    (sg,) = partition_into_subgraphs(graph, request)
    request.subgraphs = {sg.subgraph_id: sg}
    return sg


def chain_subgraphs(length):
    """The chain as the engine keeps it (a cursor-driven ``RunSubgraph``)
    and as the generic ``Subgraph`` over the oracle's explicit nodes: every
    hand-out rule below holds for both."""
    run, generic = chain_subgraph(length), chain_subgraph(length, ExplicitChainModel)
    assert type(run) is RunSubgraph and type(generic) is Subgraph
    return run, generic


def hand_out(sg, count=1, worker_id=0):
    """``commit`` to ``worker_id`` onto a fresh entry list: ids of the
    nodes handed out, each entered with its subgraph."""
    entries = []
    sg.commit(count, worker_id, entries)
    assert all(entry_sg is sg for entry_sg, _ in entries)
    return [node_id for _, node_id in entries]


def retire(sg, node_ids):
    """Complete ``node_ids`` of ``sg`` the way a retiring task does:
    through the request processor."""
    processor = RequestProcessor(
        LSTMChainModel(), on_release=lambda *subgraphs: None, on_finished=lambda r: None
    )
    cell_type = CellType(sg.cell_type_name, (), ())
    task = BatchedTask(0, cell_type, [(sg, node_id) for node_id in node_ids])
    processor.handle_task_completion(task, now=0.0)


class TestOptimisticReadiness:
    def test_chain_exposes_one_ready_node_at_a_time(self):
        for sg in chain_subgraphs(3):
            assert sg.ready_count == 1
            assert hand_out(sg) == [0]
            assert sg.ready_count == 1  # node 1 became ready optimistically
            assert hand_out(sg) == [1]

    def test_take_ready_respects_limit(self):
        """A hand-out takes exactly what was planned: never more than is
        ready, and a refused over-draw leaves the subgraph as it was."""
        for sg in chain_subgraphs(3):
            for count in (0, 2, 10):
                with pytest.raises(RuntimeError, match=f"subgraph 0: planned {count} nodes"):
                    hand_out(sg, count)
            assert sg.ready_count == 1 and sg.unsubmitted == 3
            assert hand_out(sg, 1) == [0]

    def test_exhausted_after_all_submitted(self):
        for sg in chain_subgraphs(2):
            for _ in range(2):
                assert sg.unsubmitted > 0
                hand_out(sg)
            assert sg.unsubmitted == 0 and sg.ready_count == 0

    def test_oversubmission_raises(self):
        for sg in chain_subgraphs(1):
            hand_out(sg)
            with pytest.raises(RuntimeError, match="planned 1 nodes but only 0 were ready"):
                hand_out(sg)
            assert sg.unsubmitted == 0


class TestNonOptimisticReadiness:
    def test_completion_drives_readiness(self):
        for sg in chain_subgraphs(3):
            sg.optimistic = False
            nodes = hand_out(sg)
            assert sg.ready_count == 0  # submission alone does not advance
            sg.mark_completed_internal(nodes)
            assert sg.ready_count == 1

    def test_mark_completed_internal_requires_non_optimistic(self):
        for sg in chain_subgraphs(2):
            with pytest.raises(RuntimeError, match="optimistic"):
                sg.mark_completed_internal([0])


def tree_subgraphs(placement=None):
    """A four-leaf tree admitted to a scheduler under ``placement``:
    ``(leaves, internal)``."""
    model = TreeLSTMModel()
    scheduler = Scheduler(
        BatchingConfig.with_max_batch(4),
        submit=lambda task, worker: None,
        policies=bundle_from_names(placement=placement),
    )
    scheduler.policies.placement.prepare(2)
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    graph = CellGraph()
    model.unfold(graph, TreePayload.complete(4))
    request = InferenceRequest(0, None, 0.0)
    request.graph = graph
    subgraphs = partition_into_subgraphs(graph, request)
    request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
    leaves = [sg for sg in subgraphs if type(sg) is LeafSubgraph]
    (internal,) = [sg for sg in subgraphs if type(sg) is TreeSubgraph]
    scheduler.add_subgraph(*leaves)
    return leaves, internal


def refused_state(sg):
    return (sg.ready_count, sg.unsubmitted, sg.inflight, sg.pinned, sg.owner)


class TestPinning:
    def test_pin_unpin_cycle(self):
        """The pin lasts while a node is in flight: two steps handed out
        to worker 1 hold it through the first retirement, and the second
        releases it.  Pinning counts nothing (a second hand-out to the
        same worker keeps the pin)."""
        for sg in chain_subgraphs(3):
            first = hand_out(sg, worker_id=1)
            assert (sg.pinned, sg.inflight) == (1, 1)
            second = hand_out(sg, worker_id=1)
            assert (sg.pinned, sg.inflight) == (1, 2)
            retire(sg, first)
            assert (sg.pinned, sg.inflight) == (1, 1)
            retire(sg, second)
            assert (sg.pinned, sg.inflight) == (None, 0)  # no node in flight

    def test_conflicting_pin_raises(self):
        """A hand-out to another worker than the pin's is refused before
        anything is taken."""
        for sg in chain_subgraphs(2):
            hand_out(sg, worker_id=0)
            with pytest.raises(RuntimeError, match="already pinned to worker 0"):
                hand_out(sg, worker_id=1)
            assert (sg.pinned, sg.inflight) == (0, 1)
            assert sg.ready_count == 1 and sg.unsubmitted == 1

    def test_non_optimistic_pin_only_counts_the_task(self):
        """Unpinned placement makes a subgraph non-optimistic at admission;
        its hand-outs then bind nothing — its nodes on any worker count in
        flight until they retire."""
        for sg in chain_subgraphs(3):
            sg.optimistic = False
            assert (sg.pinned, sg.inflight) == (None, 0)
            first = hand_out(sg, worker_id=0)
            assert (sg.pinned, sg.inflight) == (None, 1)
            retire(sg, first)  # completion makes the next step ready
            second = hand_out(sg, worker_id=1)
            assert (sg.pinned, sg.inflight) == (None, 1)
            retire(sg, second)
            assert (sg.pinned, sg.inflight) == (None, 0)

    def test_every_hand_out_refuses_a_subgraph_pinned_elsewhere(self):
        """The affinity check runs in both hand-outs, for every subgraph
        class: a chain run, the generic subgraph, a tree's internal
        subgraph pinned by a first take, and a leaf at its
        ``FixedPlacement`` home.  Each refuses worker 1 and stays as it
        was."""
        run, generic = chain_subgraphs(3)
        _, internal = tree_subgraphs()
        for sg in (run, generic, internal):
            hand_out(sg, worker_id=0)
        fixed_leaves, _ = tree_subgraphs("fixed")
        leaf = fixed_leaves[0]
        assert leaf.sticky and leaf.pinned == 0  # request 0's home of two
        for sg, cls in [
            (run, RunSubgraph),
            (generic, Subgraph),
            (internal, TreeSubgraph),
            (leaf, LeafSubgraph),
        ]:
            assert type(sg) is cls and sg.optimistic
            before = refused_state(sg)
            with pytest.raises(RuntimeError, match="already pinned to worker 0"):
                hand_out(sg, worker_id=1)
            assert refused_state(sg) == before
        assert hand_out(leaf, worker_id=0) == [leaf.node_ids[0]]

    def test_completion_underflow_raises(self):
        """Retiring a node that was never handed out is an underflow of
        the in-flight count, raised before any counter moves."""
        for sg in chain_subgraphs(1):
            with pytest.raises(RuntimeError, match="underflow"):
                retire(sg, [0])
            assert (sg.uncompleted, sg.inflight) == (1, 0)
            assert not sg.graph.done[0] and sg.request.remaining_nodes == 0


class TestExternalRelease:
    def _seq2seq_subgraphs(self):
        model = Seq2SeqModel()
        graph = CellGraph()
        model.unfold(graph, {"src": 3, "tgt_len": 2})
        request = InferenceRequest(0, None, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request)
        request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
        return graph, {sg.cell_type_name: sg for sg in subgraphs}

    def test_satisfy_external_releases_decoder(self):
        graph, by_type = self._seq2seq_subgraphs()
        decoder = by_type["decoder"]
        last_encoder = max(by_type["encoder"].node_ids)
        first_decoder = min(decoder.node_ids)
        became_releasable = decoder.satisfy_external(last_encoder, first_decoder)
        assert became_releasable
        assert decoder.external_pending == 0

    def test_untracked_edge_is_ignored(self):
        graph, by_type = self._seq2seq_subgraphs()
        decoder = by_type["decoder"]
        decoder.satisfy_external(999, 998)  # unknown edge: no-op
        assert decoder.external_pending == 1

    def test_released_flag_blocks_releasable(self):
        graph, by_type = self._seq2seq_subgraphs()
        decoder = by_type["decoder"]
        decoder.released = True  # released already: not reported twice
        last_encoder = max(by_type["encoder"].node_ids)
        assert not decoder.satisfy_external(last_encoder, min(decoder.node_ids))
        assert decoder.external_pending == 0
