"""End-to-end tests of the BatchMaker serving pipeline in simulation mode:
lifecycle, timing semantics, joining/leaving, multi-GPU, dynamic decoding."""

import gc

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.request import InferenceRequest, RequestState
from repro.gpu.costmodel import CostModel, LatencyTable
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload
from tests import golden
from tests.retention_helpers import keep_engine_state


def unit_cost(cell_names, step=1.0):
    model = CostModel(per_task_overhead=0.0, gather_overhead=0.0)
    for name in cell_names:
        model.register(name, LatencyTable({1: step * 1e6, 512: step * 1e6}))
    return model


class TestLifecycle:
    def test_single_request_completes(self):
        server = BatchMakerServer(LSTMChainModel())
        request = server.submit(5)
        server.drain()
        assert request.state is RequestState.FINISHED
        assert request.latency > 0
        assert server.finished == [request]

    def test_all_requests_complete(self):
        server = BatchMakerServer(LSTMChainModel())
        rng = np.random.default_rng(0)
        n = 50
        for i in range(n):
            server.submit(int(rng.integers(1, 40)), arrival_time=i * 1e-4)
        server.drain()
        assert len(server.finished) == n

    def test_latency_decomposition(self):
        server = BatchMakerServer(LSTMChainModel())
        request = server.submit(5, arrival_time=1.0)
        server.drain()
        assert request.arrival_time == 1.0
        assert request.start_time >= request.arrival_time
        assert request.finish_time > request.start_time
        assert request.latency == pytest.approx(
            request.queuing_time + request.computation_time
        )

    def test_submit_in_past_raises(self):
        server = BatchMakerServer(LSTMChainModel())
        server.submit(3, arrival_time=2.0)
        server.drain()
        with pytest.raises(ValueError, match="past"):
            server.submit(3, arrival_time=1.0)

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), float("-inf")])
    def test_submit_at_a_non_finite_time_raises_and_leaves_the_clock(self, when):
        """NaN passes a ``when < now`` check, and a clock advanced to NaN or
        infinity poisons every later time: both requests of a run would
        finish at ``nan``."""
        server = BatchMakerServer(LSTMChainModel())
        with pytest.raises(ValueError, match=f"arrival time must be finite, got {when}"):
            server.submit(3, arrival_time=when)
        assert server.loop.pending() == 0 and not server.loop._heap
        assert server.loop.now() == 0.0
        request = server.submit(3, arrival_time=1.0)
        server.drain()
        assert server.loop.now() == request.finish_time > 1.0

    def test_chain_computation_time_scales_with_length(self):
        cost = unit_cost(["lstm"], step=1.0)
        server = BatchMakerServer(
            LSTMChainModel(),
            cost_model=cost,
            config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
        )
        short = server.submit(2, arrival_time=0.0)
        long = server.submit(6, arrival_time=0.0)
        server.drain()
        assert short.finish_time == pytest.approx(2.0)
        assert long.finish_time == pytest.approx(6.0)


class TestJoinAndLeave:
    def test_short_request_leaves_before_long_batchmate(self):
        cost = unit_cost(["lstm"])
        server = BatchMakerServer(
            LSTMChainModel(),
            cost_model=cost,
            config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
        )
        long = server.submit(10, arrival_time=0.0)
        short = server.submit(2, arrival_time=0.0)
        server.drain()
        assert short.finish_time < long.finish_time

    def test_new_request_joins_running_execution(self):
        """A request arriving mid-flight must not wait for the running batch
        to finish (the defining property of cellular batching)."""
        cost = unit_cost(["lstm"])
        server = BatchMakerServer(
            LSTMChainModel(),
            cost_model=cost,
            config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
        )
        first = server.submit(10, arrival_time=0.0)
        joiner = server.submit(3, arrival_time=2.5)
        server.drain()
        # The joiner starts at the next task boundary (t=3), not at t=10.
        assert joiner.start_time == pytest.approx(3.0)
        assert joiner.finish_time < first.finish_time

    def test_tasks_batch_cells_from_different_requests(self):
        server = BatchMakerServer(
            LSTMChainModel(), config=BatchingConfig.with_max_batch(8)
        )
        for _ in range(6):
            server.submit(10, arrival_time=0.0)
        server.drain()
        assert server.mean_batch_size() > 1.0


class TestMultiGPU:
    def test_multi_gpu_increases_throughput(self):
        def run(num_gpus):
            server = BatchMakerServer(
                LSTMChainModel(),
                config=BatchingConfig.with_max_batch(32),
                num_gpus=num_gpus,
            )
            for i in range(400):
                server.submit(20, arrival_time=i * 1e-5)
            server.drain()
            return max(r.finish_time for r in server.finished)

        assert run(4) < run(1) * 0.6

    def test_requests_spread_across_workers(self):
        server = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(8),
            num_gpus=2,
        )
        for i in range(50):
            server.submit(30, arrival_time=i * 1e-5)
        server.drain()
        executed = [w.tasks_executed for w in server.manager.workers]
        assert all(count > 0 for count in executed)

    def test_pinning_keeps_chain_on_one_worker(self):
        server = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(8),
            num_gpus=4,
        )
        keep = keep_engine_state(server)
        request = server.submit(40)
        server.drain()
        # All of a chain-request's cells execute on the device it was pinned
        # to; last_worker is the only worker that ever ran it.
        (sg,) = keep.subgraphs(request)
        assert sg.last_worker is not None


class TestSeq2SeqServing:
    def test_decoder_starts_after_encoder(self):
        cost = unit_cost(["encoder", "decoder"])
        server = BatchMakerServer(
            Seq2SeqModel(),
            cost_model=cost,
            config=BatchingConfig.with_max_batch(4, max_tasks_to_submit=1),
        )
        request = server.submit({"src": 3, "tgt_len": 2})
        server.drain()
        assert request.finish_time == pytest.approx(5.0)  # 3 encode + 2 decode

    def test_dynamic_decode_stops_at_max(self):
        server = BatchMakerServer(Seq2SeqModel())
        keep = keep_engine_state(server)
        request = server.submit({"src": 4, "dynamic": True, "max_decode": 6})
        server.drain()
        assert request.state is RequestState.FINISHED
        census = keep.graph(request).cell_type_census()
        assert census["decoder"] == 6
        assert census["encoder"] == 4


class TestTreeServing:
    def test_tree_requests_complete(self):
        server = BatchMakerServer(
            TreeLSTMModel(),
            config=BatchingConfig.with_max_batch(
                64
            ),
        )
        for i in range(10):
            server.submit(
                TreePayload.complete(8), arrival_time=i * 1e-4
            )
        server.drain()
        assert len(server.finished) == 10

    def test_internal_cells_wait_for_leaves(self):
        cost = unit_cost(["tree_leaf", "tree_internal"])
        server = BatchMakerServer(
            TreeLSTMModel(),
            cost_model=cost,
            config=BatchingConfig.with_max_batch(64, max_tasks_to_submit=1),
        )
        request = server.submit(TreePayload.complete(4))
        server.drain()
        # 1 leaf level + 2 internal levels at unit cost each.
        assert request.finish_time == pytest.approx(3.0)


class TestAccounting:
    def test_every_node_executed_exactly_once(self):
        server = BatchMakerServer(LSTMChainModel())
        lengths = [3, 7, 1, 12, 5]
        for i, length in enumerate(lengths):
            server.submit(length, arrival_time=i * 1e-4)
        server.drain()
        assert server.manager.processor.total_nodes_processed == sum(lengths)

    def test_no_live_requests_after_drain(self):
        server = BatchMakerServer(LSTMChainModel())
        for i in range(10):
            server.submit(4, arrival_time=i * 1e-3)
        server.drain()
        assert server.manager.processor.live_request_count() == 0

    @pytest.mark.parametrize(
        "row", ["lstm_chain/1gpu", "storm/shedding", "memory/aware"]
    )
    def test_processor_holds_no_request_after_drain(self, row):
        """A served request — finished, timed out, shed, or preempted and
        re-added on the way — is dropped by the processor, not kept (with
        its graph and subgraphs) for the life of the server."""
        server = golden.run(golden.matrix()[row], 42)
        assert len(server.terminal_requests()) >= 150
        if row == "storm/shedding":
            assert server.timed_out and server.rejected
        if row == "memory/aware":
            assert server.fault_counters().memory_evictions > 0
        processor = server.manager.processor
        assert processor.live_requests() == []
        held = gc.get_referents(*vars(processor).values())
        assert not [o for o in held if isinstance(o, InferenceRequest)]
        # A finished id may come again (it used to raise "already added");
        # a live one still may not.
        again = InferenceRequest(0, server.finished[0].payload, 0.0)
        processor.add_request(again)
        with pytest.raises(ValueError, match="already added"):
            processor.add_request(again)
