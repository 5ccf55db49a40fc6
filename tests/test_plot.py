"""Tests for the SVG charting package."""

import math

import pytest

from repro.plot import (
    Axis,
    Chart,
    LinearScale,
    LogScale,
    Series,
    SvgCanvas,
    cdf_chart,
    nice_ticks,
    sweep_chart,
    timeline_chart,
)


class TestTicks:
    def test_nice_ticks_cover_range(self):
        ticks = nice_ticks(0, 100)
        assert ticks[0] >= 0
        assert ticks[-1] <= 100
        assert len(ticks) >= 3

    def test_nice_ticks_steps_are_uniform(self):
        ticks = nice_ticks(0, 7)
        steps = {round(b - a, 9) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1

    def test_degenerate_range(self):
        assert nice_ticks(5, 5) == [5]

    def test_inverted_range_raises(self):
        with pytest.raises(ValueError):
            nice_ticks(2, 1)


class TestScales:
    def test_linear_fraction(self):
        scale = LinearScale(0, 10)
        assert scale.fraction(0) == 0.0
        assert scale.fraction(10) == 1.0
        assert scale.fraction(5) == 0.5

    def test_linear_invalid_domain(self):
        with pytest.raises(ValueError):
            LinearScale(1, 1)

    def test_log_fraction(self):
        scale = LogScale(1, 100)
        assert scale.fraction(1) == 0.0
        assert scale.fraction(100) == 1.0
        assert scale.fraction(10) == pytest.approx(0.5)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LogScale(0, 10)
        with pytest.raises(ValueError):
            LogScale(1, 10).fraction(0)

    def test_log_ticks_are_decades(self):
        ticks = LogScale(0.1, 1000).ticks()
        assert ticks == [0.1, 1.0, 10.0, 100.0, 1000.0]

    def test_axis_tick_labels_format(self):
        axis = Axis.linear(0, 20000)
        labels = dict(axis.tick_labels())
        assert any("k" in text for text in labels.values())


class TestSvgCanvas:
    def test_render_is_valid_svg_shell(self):
        canvas = SvgCanvas(100, 50)
        canvas.line(0, 0, 10, 10)
        canvas.circle(5, 5, 2)
        canvas.text(1, 1, "hello <&>")
        svg = canvas.render()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "hello &lt;&amp;&gt;" in svg  # text is escaped

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10)

    def test_polyline_needs_two_points(self):
        with pytest.raises(ValueError):
            SvgCanvas(10, 10).polyline([(0, 0)])

    def test_save(self, tmp_path):
        canvas = SvgCanvas(10, 10)
        path = tmp_path / "out.svg"
        canvas.save(path)
        assert path.read_text().startswith("<svg")


class TestChart:
    def test_basic_chart_renders_series_and_legend(self):
        chart = Chart("T", "x", "y")
        chart.add(Series("alpha", [(0, 1), (1, 2), (2, 4)]))
        chart.add(Series("beta", [(0, 2), (2, 1)], style="marker"))
        svg = chart.render()
        assert "alpha" in svg and "beta" in svg
        assert "polyline" in svg and "circle" in svg

    def test_empty_chart_raises(self):
        with pytest.raises(ValueError, match="no series"):
            Chart("T", "x", "y").render()

    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="no points"):
            Series("s", [])

    def test_unknown_style_raises(self):
        with pytest.raises(ValueError, match="unknown style"):
            Series("s", [(0, 0)], style="sparkles")

    def test_y_cap_clips_values(self):
        chart = Chart("T", "x", "y")
        chart.add(Series("s", [(0, 1), (1, 10000)]))
        chart.cap_y(100)
        svg = chart.render()  # must not raise; domain capped
        assert "10000" not in svg.split("</text>")[0]

    def test_log_x_chart(self):
        chart = Chart("T", "x", "y", x_log=True)
        chart.add(Series("s", [(0.1, 1), (100, 2)]))
        assert "<svg" in chart.render()

    def test_colors_cycle_automatically(self):
        chart = Chart("T", "x", "y")
        for i in range(3):
            chart.add(Series(f"s{i}", [(0, i), (1, i + 1)]))
        colors = {s.color for s in chart.series}
        assert len(colors) == 3

    def test_save(self, tmp_path):
        chart = Chart("T", "x", "y")
        chart.add(Series("s", [(0, 0), (1, 1)]))
        path = tmp_path / "chart.svg"
        chart.save(path)
        assert path.read_text().startswith("<svg")


class TestChartHelpers:
    def make_summary(self, throughput, p90_ms):
        from repro.core.request import InferenceRequest
        from repro.metrics.latency import LatencyStats
        from repro.metrics.summary import RunSummary

        request = InferenceRequest(0, None, 0.0)
        request.mark_started(0.0)
        request.mark_finished(p90_ms / 1e3)
        stats = LatencyStats().extend([request])
        return RunSummary("s", throughput, throughput, stats)

    def test_sweep_chart(self):
        chart = sweep_chart(
            "t",
            {"A": [self.make_summary(100, 5), self.make_summary(200, 50)]},
        )
        assert "Throughput" in chart.render()

    def test_cdf_chart(self):
        chart = cdf_chart("t", {"A": [(1.0, 0.5), (2.0, 1.0)]})
        assert "Cumulative" in chart.render()

    def test_timeline_chart(self):
        chart = timeline_chart("t", {"req1": (0.0, 1.0, 3.0)})
        assert "req1" in chart.render()
