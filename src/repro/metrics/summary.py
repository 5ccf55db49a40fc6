"""Run summaries and text tables for the experiment harness."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.metrics.latency import LatencyStats


class RunSummary:
    """Summary of one load point: offered load, achieved throughput and the
    latency percentiles the paper plots."""

    def __init__(
        self,
        system: str,
        offered_rate: float,
        throughput: float,
        stats: LatencyStats,
        extras: Optional[Dict[str, float]] = None,
    ):
        self.system = system
        self.offered_rate = offered_rate
        self.throughput = throughput
        self.stats = stats
        self.extras = dict(extras or {})

    @property
    def p50_ms(self) -> float:
        return self.stats.p_ms(50)

    @property
    def p90_ms(self) -> float:
        return self.stats.p_ms(90)

    @property
    def p99_ms(self) -> float:
        return self.stats.p_ms(99)

    def __repr__(self) -> str:
        return (
            f"<RunSummary {self.system} rate={self.offered_rate:.0f} "
            f"thr={self.throughput:.0f} p90={self.p90_ms:.2f}ms>"
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Simple aligned text table (the harness prints these to stdout)."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)
