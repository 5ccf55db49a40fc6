"""Tests for partitioning and serving graphs that mix cell types along one
chain (LSTM chain + final projection), and related padded-baseline phases."""

import numpy as np
import pytest

from repro.baselines import PaddedServer
from repro.core import BatchMakerServer, BatchingConfig
from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.core.subgraph import partition_into_subgraphs
from repro.models import LSTMChainModel


class TestProjectionChainPartition:
    def test_chain_plus_projection_is_two_subgraphs(self):
        model = LSTMChainModel(project_output=True)
        graph = CellGraph()
        model.unfold(graph, 6)
        request = InferenceRequest(0, 6, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request)
        by_type = {sg.cell_type_name: sg for sg in subgraphs}
        assert set(by_type) == {"lstm", "lstm_proj"}
        assert len(by_type["lstm"].node_ids) == 6
        assert len(by_type["lstm_proj"].node_ids) == 1
        # The projection waits for the chain's last cell.
        assert by_type["lstm_proj"].external_pending == 1
        assert by_type["lstm"].external_pending == 0

    def test_serving_projection_model_sim(self):
        model = LSTMChainModel(project_output=True)
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(16)
        )
        for i in range(8):
            server.submit(5, arrival_time=i * 1e-4)
        server.drain()
        assert len(server.finished) == 8
        # 8 x (5 chain cells + 1 projection cell)
        assert server.manager.processor.total_nodes_processed == 48

    def test_projection_scheduled_as_own_cell_type(self):
        model = LSTMChainModel(project_output=True)
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(16)
        )
        server.submit(4)
        server.drain()
        counts = server.manager.scheduler.batch_size_counts
        # 4 chain tasks (batch 1) + 1 projection task (batch 1).
        assert sum(counts.values()) == 5


class TestPaddedMultiPhaseChain:
    def test_projection_phase_padded_once(self):
        """The (lstm, steps) + (lstm_proj, 1) phase pair: the projection
        executes once per batch at the batch size, not once per step."""
        model = LSTMChainModel(project_output=True)
        server = PaddedServer(
            model, bucket_width=10, per_batch_overhead=0.0, per_step_overhead=0.0
        )
        a = server.submit(7, arrival_time=0.0)
        b = server.submit(9, arrival_time=0.0)
        server.drain()
        cost = server.cost_model
        expected = 10 * cost.kernel_time("lstm", 2) + 10 * cost.kernel_time(
            "lstm_proj", 2
        )
        # Both phases pad to the width-10 ceiling of their step counts
        # (proj steps = 1 -> ceiling 10 under this simple policy).
        assert a.computation_time == pytest.approx(expected)
        assert a.finish_time == b.finish_time


class TestRealComputeProjectionChain:
    def test_projection_results_are_tokens(self, rng):
        model = LSTMChainModel(
            hidden_dim=12, vocab_size=40, embed_dim=6, real=True,
            project_output=True, seed=8,
        )
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(4), real_compute=True
        )
        payloads = [
            [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))]
            for _ in range(6)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4)
            for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            token = int(np.asarray(request.result[0]).reshape(()))
            assert 0 <= token < 40
            assert token == int(model.reference_forward(payload)[0])
