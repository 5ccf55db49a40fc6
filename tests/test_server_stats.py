"""Tests for the serving-statistics module."""

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.stats import ServerStats
from repro.models import LSTMChainModel
from repro.registry import build_server as build_registry_server
from repro.registry import presets


def served_server(num_gpus=2, n=20):
    server = BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(8),
        num_gpus=num_gpus,
    )
    for i in range(n):
        server.submit(10, arrival_time=i * 1e-4)
    server.drain()
    return server


class TestServerStats:
    def test_counts_are_consistent(self):
        server = served_server()
        stats = server.stats()
        assert stats.finished_requests == 20
        assert stats.live_requests == 0
        assert stats.nodes_processed == 200
        assert stats.tasks_submitted == sum(stats.batch_size_counts.values())
        # Every cell went through exactly one task.
        assert sum(b * c for b, c in stats.batch_size_counts.items()) == 200

    def test_worker_utilization_bounds(self):
        server = served_server()
        stats = server.stats()
        assert len(stats.workers) == 2
        for worker in stats.workers:
            assert 0.0 <= worker["utilization"] <= 1.0
            assert 0.0 <= worker["gather_rate"] <= 1.0
        assert sum(w["tasks"] for w in stats.workers) == stats.tasks_submitted

    def test_batch_size_percentile(self):
        server = served_server()
        stats = server.stats()
        p50 = stats.batch_size_percentile(50)
        assert 1 <= p50 <= 8
        assert stats.batch_size_percentile(100) >= p50

    def test_percentile_requires_tasks(self):
        server = BatchMakerServer(LSTMChainModel())
        with pytest.raises(ValueError, match="no tasks"):
            server.stats().batch_size_percentile(50)

    def test_report_renders(self):
        server = served_server()
        text = server.stats().report()
        assert "serving report" in text
        assert "gpu0" in text and "gpu1" in text
        assert "latency ms" in text

    def test_report_before_any_traffic(self):
        """A server that ran no task reports, without a batch percentile."""
        server = build_registry_server(presets.lstm_batchmaker_spec())
        stats = server.stats()
        assert stats.latency is None
        assert stats.mean_batch_size == 0.0
        text = stats.report()
        assert "tasks: 0 (mean batch 0.0)" in text and "p50 batch" not in text

    def test_report_when_every_request_was_rejected(self):
        server = build_registry_server(presets.tree_batchmaker_spec())
        request = server.submit([1, 2, 3])
        server.drain()
        assert request.cancel_reason.startswith("bad_payload: ")
        stats = server.stats()
        assert stats.tasks_submitted == 0 and stats.rejected_requests == 1
        text = stats.report()
        assert "tasks: 0 (mean batch 0.0)" in text and "p50 batch" not in text
        assert "1 rejected" in text

    def test_gather_rate_reflects_composition_stability(self):
        """A single long chain re-batches the same composition every step:
        only the first task needs a gather."""
        server = BatchMakerServer(
            LSTMChainModel(), config=BatchingConfig.with_max_batch(8)
        )
        server.submit(50)
        server.drain()
        stats = server.stats()
        (worker,) = stats.workers
        assert worker["gathers"] == 1
