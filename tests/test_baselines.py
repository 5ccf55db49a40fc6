"""Tests for the graph-batching baseline servers."""

import pytest

from repro.baselines import FoldServer, IdealServer, PaddedServer
from repro.baselines.fold import level_census
from repro.core.cell_graph import CellGraph
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload


class TestPaddedBucketing:
    def test_bucket_key_is_ceiling(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10)
        assert server.bucket_key(21) == (30,)
        assert server.bucket_key(30) == (30,)
        assert server.bucket_key(1) == (10,)

    def test_bucket_width_one_means_exact(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=1)
        assert server.bucket_key(17) == (17,)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            PaddedServer(LSTMChainModel(), bucket_width=0)
        with pytest.raises(ValueError):
            PaddedServer(LSTMChainModel(), max_batch=0)

    def test_same_bucket_requests_batch_together(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10)
        a = server.submit(21, arrival_time=0.0)
        b = server.submit(25, arrival_time=0.0)
        server.drain()
        assert a.finish_time == b.finish_time  # graph batching: leave together
        assert server.batches_executed == 1

    def test_different_buckets_execute_separately(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10)
        server.submit(5, arrival_time=0.0)
        server.submit(25, arrival_time=0.0)
        server.drain()
        assert server.batches_executed == 2

    def test_padding_charges_bucket_ceiling(self):
        """A length-21 request in a width-10 bucket pays for 30 steps."""
        server = PaddedServer(
            LSTMChainModel(), bucket_width=10,
            per_batch_overhead=0.0, per_step_overhead=0.0,
        )
        short = PaddedServer(
            LSTMChainModel(), bucket_width=1,
            per_batch_overhead=0.0, per_step_overhead=0.0,
        )
        a = server.submit(21, arrival_time=0.0)
        b = short.submit(21, arrival_time=0.0)
        server.drain()
        short.drain()
        assert a.computation_time == pytest.approx(b.computation_time * 30 / 21)

    def test_round_robin_across_buckets(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10)
        first = server.submit(5, arrival_time=0.0)
        second = server.submit(15, arrival_time=0.0)
        third = server.submit(6, arrival_time=0.0)  # joins first's bucket
        server.drain()
        # Bucket (10,) runs first with both its requests, then bucket (20,).
        assert first.start_time == third.start_time == 0.0
        assert second.start_time > 0.0

    def test_max_batch_respected(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10, max_batch=2)
        for i in range(5):
            server.submit(5, arrival_time=0.0)
        server.drain()
        assert server.batches_executed == 3
        assert max(server.batch_sizes) == 2

    def test_seq2seq_buckets_on_source_and_pads_decode_to_batch_max(self):
        server = PaddedServer(
            Seq2SeqModel(), bucket_width=10,
            per_batch_overhead=0.0, per_step_overhead=0.0,
        )
        a = server.submit({"src": 8, "tgt_len": 3}, arrival_time=0.0)
        b = server.submit({"src": 4, "tgt_len": 11}, arrival_time=0.0)
        server.drain()
        assert server.batches_executed == 1  # same source bucket
        cost = server.cost_model
        expected = 10 * cost.kernel_time("encoder", 2) + 20 * cost.kernel_time(
            "decoder", 2
        )
        assert a.computation_time == pytest.approx(expected)
        assert a.finish_time == b.finish_time

    def test_mean_batch_size(self):
        server = PaddedServer(LSTMChainModel(), bucket_width=10)
        assert server.mean_batch_size() == 0.0
        server.submit(5, arrival_time=0.0)
        server.submit(6, arrival_time=0.0)
        server.drain()
        assert server.mean_batch_size() == 2.0


class TestFoldMerging:
    def test_level_census_chain(self):
        model = LSTMChainModel()
        graph = CellGraph()
        model.unfold(graph, 4)
        census = level_census(graph)
        assert census == {i: {"lstm": 1} for i in range(4)}

    def test_level_census_tree(self):
        model = TreeLSTMModel()
        graph = CellGraph()
        model.unfold(graph, TreePayload.complete(4))
        census = level_census(graph)
        assert census[0] == {"tree_leaf": 4}
        assert census[1] == {"tree_internal": 2}
        assert census[2] == {"tree_internal": 1}

    def test_batch_merges_levels_across_requests(self):
        server = FoldServer(TreeLSTMModel(), per_level_overhead=0.0)
        a = server.submit(TreePayload.complete(4), arrival_time=0.0)
        b = server.submit(TreePayload.complete(4), arrival_time=0.0)
        server.drain()
        cost = server.cost_model
        expected = (
            cost.kernel_time("tree_leaf", 8)
            + cost.kernel_time("tree_internal", 4)
            + cost.kernel_time("tree_internal", 2)
        )
        assert a.computation_time == pytest.approx(expected)
        assert a.finish_time == b.finish_time

    def test_merge_overhead_serial(self):
        base = FoldServer(TreeLSTMModel(), merge_overhead_per_request=0.0)
        loaded = FoldServer(
            TreeLSTMModel(), merge_overhead_per_request=1e-3, overlap_merge=False
        )
        payload = TreePayload.complete(4)
        a = base.submit(payload, arrival_time=0.0)
        b = loaded.submit(payload, arrival_time=0.0)
        base.drain()
        loaded.drain()
        assert b.computation_time == pytest.approx(a.computation_time + 1e-3)

    def test_merge_overhead_overlapped_takes_max(self):
        server = FoldServer(
            TreeLSTMModel(),
            merge_overhead_per_request=1.0,  # absurdly large: dominates
            overlap_merge=True,
        )
        request = server.submit(TreePayload.complete(4), arrival_time=0.0)
        server.drain()
        assert request.computation_time == pytest.approx(1.0)

    def test_max_requests_cap(self):
        server = FoldServer(TreeLSTMModel(), max_requests=2)
        for i in range(5):
            server.submit(TreePayload.complete(2), arrival_time=0.0)
        server.drain()
        assert server.batches_executed == 3

    def test_published_configurations(self):
        fold = FoldServer.tensorflow_fold(TreeLSTMModel())
        dynet = FoldServer.dynet(TreeLSTMModel())
        assert fold.name == "TF Fold"
        assert dynet.name == "DyNet"
        assert fold.merge_overhead_per_request > dynet.merge_overhead_per_request
        assert fold.overlap_merge and not dynet.overlap_merge

    def test_works_for_chains_too(self):
        server = FoldServer(LSTMChainModel())
        a = server.submit(3, arrival_time=0.0)
        b = server.submit(7, arrival_time=0.0)
        server.drain()
        assert a.finish_time == b.finish_time


class TestIdealServer:
    def payload(self):
        return TreePayload.complete(4)

    def test_requires_identical_structure(self):
        server = IdealServer(TreeLSTMModel(), self.payload())
        with pytest.raises(ValueError, match="differs from the template"):
            server.submit(TreePayload.complete(8), arrival_time=0.0)
            server.drain()

    def test_duration_is_one_kernel_per_template_node(self):
        server = IdealServer(TreeLSTMModel(), self.payload())
        request = server.submit(self.payload(), arrival_time=0.0)
        server.drain()
        cost = server.cost_model
        expected = 4 * cost.kernel_time("tree_leaf", 1) + 3 * cost.kernel_time(
            "tree_internal", 1
        )
        assert request.computation_time == pytest.approx(expected)

    def test_batches_up_to_max(self):
        server = IdealServer(TreeLSTMModel(), self.payload(), max_batch=3)
        for i in range(7):
            server.submit(self.payload(), arrival_time=0.0)
        server.drain()
        assert server.batch_sizes == [3, 3, 1]
