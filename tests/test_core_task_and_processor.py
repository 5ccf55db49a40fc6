"""Unit tests for BatchedTask and the RequestProcessor."""

import numpy as np
import pytest

from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, NodeOutput, ValueInput
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.subgraph import partition_into_subgraphs
from repro.core.task import BatchedTask
from repro.models import LSTMChainModel, Seq2SeqModel
from repro.cells.lstm import LSTMCell
from repro.tensor.parameters import ParameterStore


class TestBatchedTask:
    def make_chain(self, model, length, request_id=0):
        graph = CellGraph()
        model.unfold(graph, length)
        request = InferenceRequest(request_id, length, 0.0)
        request.graph = graph
        (sg,) = partition_into_subgraphs(graph, request, start_id=request_id)
        request.subgraphs = {sg.subgraph_id: sg}
        return graph, sg

    def test_empty_task_raises(self):
        model = LSTMChainModel()
        with pytest.raises(ValueError, match="at least one entry"):
            BatchedTask(0, model.cell_types()[0], [])

    def test_mixed_cell_types_raise(self):
        model = Seq2SeqModel()
        graph = CellGraph()
        model.unfold(graph, {"src": 1, "tgt_len": 1})
        request = InferenceRequest(0, None, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request)
        entries = [(sg, nid) for sg in subgraphs for nid in sg.node_ids]
        with pytest.raises(ValueError, match="node 1 has type 'decoder', expected 'encoder'"):
            BatchedTask(0, model.cell_types()[0], entries)

    def test_subgraph_bookkeeping(self):
        model = LSTMChainModel()
        graph_a, sg_a = self.make_chain(model, 2, request_id=0)
        graph_b, sg_b = self.make_chain(model, 2, request_id=1)
        entries = [(sg_a, 0), (sg_b, 0)]
        task = BatchedTask(0, model.cell_types()[0], entries)
        assert task.batch_size == 2
        assert task.plan == [(sg_a, 1), (sg_b, 1)]

    def test_execute_gathers_and_scatters(self):
        params = ParameterStore(seed=0)
        lstm = LSTMCell("l", 3, 4, params)
        cell_type = CellType.from_cell(lstm)
        graph = CellGraph()
        rng = np.random.default_rng(0)
        rows = [rng.standard_normal(3).astype(np.float32) for _ in range(3)]
        zeros = np.zeros(4, dtype=np.float32)
        nodes = [
            graph.add_node(
                cell_type,
                {"x": ValueInput(row), "h": ValueInput(zeros), "c": ValueInput(zeros)},
            )
            for row in rows
        ]
        request = InferenceRequest(0, None, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request)
        sg_of = {nid: sg for sg in subgraphs for nid in sg.node_ids}
        task = BatchedTask(0, cell_type, [(sg_of[n.node_id], n.node_id) for n in nodes])
        task.execute()
        for node, row in zip(nodes, rows):
            expected = lstm(
                {
                    "x": row[None, :],
                    "h": zeros[None, :],
                    "c": zeros[None, :],
                }
            )
            np.testing.assert_allclose(
                graph.outputs[node.node_id]["h"], expected["h"][0], atol=1e-6
            )

    def test_execute_with_unexecuted_dependency_raises(self):
        params = ParameterStore(seed=0)
        lstm = LSTMCell("l", 4, 4, params)
        cell_type = CellType.from_cell(lstm)
        graph = CellGraph()
        zeros = np.zeros(4, dtype=np.float32)
        first = graph.add_node(
            cell_type,
            {"x": ValueInput(zeros), "h": ValueInput(zeros), "c": ValueInput(zeros)},
        )
        second = graph.add_node(
            cell_type,
            {
                "x": ValueInput(zeros),
                "h": NodeOutput(first.node_id, "h"),
                "c": NodeOutput(first.node_id, "c"),
            },
        )
        request = InferenceRequest(0, None, 0.0)
        request.graph = graph
        (sg,) = partition_into_subgraphs(graph, request)
        task = BatchedTask(0, cell_type, [(sg, second.node_id)])
        with pytest.raises(RuntimeError, match="unexecuted"):
            task.execute()


class TestRequestProcessor:
    def make(self, model, collect_results=False):
        released, finished = [], []
        processor = RequestProcessor(
            model,
            on_release=lambda *subgraphs: released.extend(subgraphs),
            on_finished=finished.append,
            collect_results=collect_results,
        )
        return processor, released, finished

    def test_add_request_releases_ready_subgraphs(self):
        model = Seq2SeqModel()
        processor, released, _ = self.make(model)
        request = InferenceRequest(0, {"src": 3, "tgt_len": 2}, 0.0)
        processor.add_request(request)
        assert len(released) == 1
        assert released[0].cell_type_name == "encoder"

    def test_duplicate_request_raises(self):
        model = LSTMChainModel()
        processor, _, _ = self.make(model)
        request = InferenceRequest(0, 3, 0.0)
        processor.add_request(request)
        with pytest.raises(ValueError, match="already added"):
            processor.add_request(request)

    def test_completion_releases_dependent_subgraph(self):
        model = Seq2SeqModel()
        processor, released, finished = self.make(model)
        request = InferenceRequest(0, {"src": 1, "tgt_len": 1}, 0.0)
        processor.add_request(request)
        encoder_sg = released[0]
        entries = []
        encoder_sg.commit(1, 0, entries)
        assert entries == [(encoder_sg, encoder_sg.node_ids[0])]
        task = BatchedTask(0, model.cell_types()[0], entries)
        processor.handle_task_completion(task, now=1.0)
        assert len(released) == 2
        assert released[1].cell_type_name == "decoder"
        assert not finished  # decoder still outstanding

    def test_double_completion_raises(self):
        model = LSTMChainModel()
        processor, released, _ = self.make(model)
        request = InferenceRequest(0, 1, 0.0)
        processor.add_request(request)
        sg = released[0]
        entries = []
        sg.commit(1, 0, entries)
        task = BatchedTask(0, model.cell_types()[0], entries)
        processor.handle_task_completion(task, now=1.0)
        assert request.graph.done == bytearray([1])
        assert (sg.uncompleted, sg.inflight, request.remaining_nodes) == (0, 0, 0)
        with pytest.raises(RuntimeError, match="node 0 completed twice"):
            processor.handle_task_completion(task, now=2.0)
        # Raised before any counter moved: no underflow behind it.
        assert (sg.uncompleted, sg.inflight, request.remaining_nodes) == (0, 0, 0)

    def test_finish_fires_when_all_nodes_complete(self):
        model = LSTMChainModel()
        processor, released, finished = self.make(model)
        request = InferenceRequest(0, 2, 0.0)
        processor.add_request(request)
        sg = released[0]
        for nid in (0, 1):
            entries = []
            sg.commit(1, 0, entries)
            assert entries == [(sg, nid)]
            task = BatchedTask(nid, model.cell_types()[0], entries)
            processor.handle_task_completion(task, now=1.0 + nid)
        assert finished == [request]
        assert processor.live_request_count() == 0

    def test_empty_unfold_raises(self):
        class EmptyModel(LSTMChainModel):
            def unfold(self, graph, payload):
                pass

        processor, _, _ = self.make(EmptyModel())
        with pytest.raises(ValueError, match="empty graph"):
            processor.add_request(InferenceRequest(0, 1, 0.0))
