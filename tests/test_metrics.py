"""Tests for the metrics package."""

import pytest

from repro.core.request import InferenceRequest
from repro.metrics import LatencyStats, RunSummary, cdf_points, format_table, percentile


def finished_request(rid, arrival, start, finish):
    request = InferenceRequest(rid, None, arrival)
    request.mark_started(start)
    request.mark_finished(finish)
    return request


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_bounds(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestCdf:
    def test_points_are_sorted_and_end_at_one(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert [v for v, _ in points] == [1.0, 2.0, 3.0]
        assert points[-1][1] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cdf_points([])


class TestLatencyStats:
    def test_decomposition_recorded(self):
        stats = LatencyStats()
        stats.add_request(finished_request(0, arrival=0.0, start=1.0, finish=3.0))
        assert stats.latencies == [3.0]
        assert stats.queuing == [1.0]
        assert stats.computation == [2.0]

    def test_unfinished_request_raises(self):
        request = InferenceRequest(0, None, 0.0)
        with pytest.raises(ValueError, match="not finished"):
            LatencyStats().add_request(request)

    def test_extend_and_count(self):
        requests = [
            finished_request(i, 0.0, 0.5, 1.0 + i) for i in range(5)
        ]
        stats = LatencyStats().extend(requests)
        assert stats.count() == 5

    def test_series_selection(self):
        stats = LatencyStats().extend(
            [finished_request(0, 0.0, 1.0, 4.0)]
        )
        assert stats.p(50, "queuing") == 1.0
        assert stats.p(50, "computation") == 3.0
        assert stats.mean("latency") == 4.0

    def test_unknown_series_raises(self):
        stats = LatencyStats().extend([finished_request(0, 0.0, 1.0, 2.0)])
        with pytest.raises(ValueError, match="unknown series"):
            stats.p(50, "bananas")

    def test_cdf_series(self):
        stats = LatencyStats().extend(
            [finished_request(i, 0.0, 0.0, float(i + 1)) for i in range(4)]
        )
        points = stats.cdf("latency")
        assert points[0] == (1.0, 0.25)


class TestSummary:
    def make_summary(self):
        stats = LatencyStats().extend(
            [finished_request(i, 0.0, 0.001, 0.002 + 0.001 * i) for i in range(10)]
        )
        return RunSummary("Sys", offered_rate=100.0, throughput=95.0, stats=stats)

    def test_percentile_properties_in_ms(self):
        summary = self.make_summary()
        assert summary.p50_ms == pytest.approx(1e3 * summary.stats.p(50))
        assert summary.p90_ms >= summary.p50_ms
        assert summary.p99_ms >= summary.p90_ms


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a ")

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])
