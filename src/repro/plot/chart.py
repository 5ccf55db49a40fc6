"""Charting: the :class:`Chart` core (series + axes -> SVG) plus the
figure-shaped builders (``sweep_chart`` / ``cdf_chart`` / ``timeline_chart``)
the experiment harness renders with."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.plot.axes import Axis
from repro.plot.svg import SvgCanvas

# A colour cycle that survives grayscale printing reasonably well.
PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#17becf", "#7f7f7f",
]

MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 55


class Series:
    """One named data series."""

    def __init__(
        self,
        name: str,
        points: Sequence[Tuple[float, float]],
        style: str = "line+marker",  # "line", "marker", "line+marker", "step"
        color: Optional[str] = None,
    ):
        if not points:
            raise ValueError(f"series {name!r} has no points")
        if style not in ("line", "marker", "line+marker", "step"):
            raise ValueError(f"unknown style {style!r}")
        self.name = name
        self.points = list(points)
        self.style = style
        self.color = color


class Chart:
    """A 2-D chart with automatic or explicit axes."""

    def __init__(
        self,
        title: str,
        x_label: str,
        y_label: str,
        width: int = 640,
        height: int = 420,
        x_log: bool = False,
        y_log: bool = False,
    ):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height
        self.x_log = x_log
        self.y_log = y_log
        self.series: List[Series] = []
        self._y_cap: Optional[float] = None

    def add(self, series: Series) -> "Chart":
        if series.color is None:
            series.color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(series)
        return self

    def cap_y(self, cap: float) -> "Chart":
        """Clip the y-domain (the paper clips latency plots at ~500 ms)."""
        self._y_cap = cap
        return self

    # -- rendering -----------------------------------------------------------

    def _domains(self) -> Tuple[Axis, Axis]:
        xs = [x for s in self.series for x, _ in s.points]
        ys = [y for s in self.series for _, y in s.points]
        if self._y_cap is not None:
            ys = [min(y, self._y_cap) for y in ys]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if self.x_log:
            x_axis = Axis.log(max(x_lo * 0.8, 1e-12), x_hi * 1.2)
        else:
            pad = 0.05 * (x_hi - x_lo or 1.0)
            x_axis = Axis.linear(max(0.0, x_lo - pad), x_hi + pad)
        if self.y_log:
            y_axis = Axis.log(max(y_lo * 0.8, 1e-12), y_hi * 1.2)
        else:
            pad = 0.05 * (y_hi - y_lo or 1.0)
            y_axis = Axis.linear(max(0.0, y_lo - pad), y_hi + pad)
        return x_axis, y_axis

    def _to_pixel(self, x_axis, y_axis, x, y) -> Tuple[float, float]:
        plot_w = self.width - MARGIN_LEFT - MARGIN_RIGHT
        plot_h = self.height - MARGIN_TOP - MARGIN_BOTTOM
        fx = min(max(x_axis.fraction(x), 0.0), 1.0)
        fy = min(max(y_axis.fraction(y), 0.0), 1.0)
        return MARGIN_LEFT + fx * plot_w, MARGIN_TOP + (1 - fy) * plot_h

    def render(self) -> str:
        if not self.series:
            raise ValueError("chart has no series")
        canvas = SvgCanvas(self.width, self.height)
        x_axis, y_axis = self._domains()
        left, top = MARGIN_LEFT, MARGIN_TOP
        right = self.width - MARGIN_RIGHT
        bottom = self.height - MARGIN_BOTTOM

        canvas.text(self.width / 2, 22, self.title, size=14, anchor="middle")
        # Frame and gridlines.
        canvas.rect(left, top, right - left, bottom - top, stroke="#444444")
        for value, label in x_axis.tick_labels():
            px, _ = self._to_pixel(x_axis, y_axis, value, y_axis.scale.lo)
            canvas.line(px, top, px, bottom, stroke="#dddddd")
            canvas.text(px, bottom + 16, label, size=10, anchor="middle")
        for value, label in y_axis.tick_labels():
            _, py = self._to_pixel(x_axis, y_axis, x_axis.scale.lo, value)
            canvas.line(left, py, right, py, stroke="#dddddd")
            canvas.text(left - 6, py + 4, label, size=10, anchor="end")
        canvas.text(
            (left + right) / 2, self.height - 12, self.x_label, size=12,
            anchor="middle",
        )
        canvas.text(
            16, (top + bottom) / 2, self.y_label, size=12, anchor="middle",
            rotate=-90,
        )

        # Series.
        for series in self.series:
            pts = series.points
            if self._y_cap is not None:
                pts = [(x, min(y, self._y_cap)) for x, y in pts]
            pixels = [self._to_pixel(x_axis, y_axis, x, y) for x, y in pts]
            if series.style == "step" and len(pixels) > 1:
                stepped = []
                for (x1, y1), (x2, y2) in zip(pixels, pixels[1:]):
                    stepped.extend([(x1, y1), (x2, y1)])
                stepped.append(pixels[-1])
                canvas.polyline(stepped, stroke=series.color)
            elif "line" in series.style and len(pixels) > 1:
                canvas.polyline(pixels, stroke=series.color)
            if "marker" in series.style:
                for px, py in pixels:
                    canvas.circle(px, py, 3.0, fill=series.color)

        # Legend.
        legend_y = top + 14
        for series in self.series:
            canvas.line(left + 10, legend_y - 4, left + 34, legend_y - 4,
                        stroke=series.color, width=2.5)
            canvas.text(left + 40, legend_y, series.name, size=11)
            legend_y += 16
        return canvas.render()

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.render())


# -- figure-shaped builders used by the experiment harness -------------------


def sweep_chart(
    title: str,
    summaries_by_system: Dict[str, List],
    latency_cap_ms: float = 500.0,
) -> Chart:
    """Figure-7/13/14-style chart: achieved throughput vs p90 latency."""
    chart = Chart(
        title,
        x_label="Throughput (req/s)",
        y_label="90p latency (ms)",
    )
    chart.cap_y(latency_cap_ms)
    for system, summaries in summaries_by_system.items():
        points = [(s.throughput, s.p90_ms) for s in summaries]
        chart.add(Series(system, points))
    return chart


def cdf_chart(
    title: str,
    series_points: Dict[str, Sequence[Tuple[float, float]]],
    x_label: str = "Time (ms)",
    x_log: bool = True,
) -> Chart:
    """Figure-9/10-style chart: cumulative fraction vs value."""
    chart = Chart(
        title,
        x_label=x_label,
        y_label="Cumulative fraction",
        x_log=x_log,
    )
    for name, points in series_points.items():
        chart.add(Series(name, list(points), style="step"))
    return chart


def timeline_chart(
    title: str,
    request_windows: Dict[str, Tuple[float, float, float]],
) -> Chart:
    """Figure-5-style chart: one horizontal bar per request.

    ``request_windows`` maps a request name to (arrival, start, finish);
    rendered as markers at arrival/start and a line to finish, stacked by
    insertion order.
    """
    chart = Chart(
        title, x_label="Time (units)", y_label="Request (index)", height=360
    )
    for index, (name, (arrival, start, finish)) in enumerate(
        request_windows.items()
    ):
        y = float(len(request_windows) - index)
        chart.add(
            Series(
                name,
                [(arrival, y), (start, y), (finish, y)],
                style="line+marker",
            )
        )
    return chart
