"""Measurement: latency percentiles, CDFs, run summaries, fault/SLA counters."""

from repro.metrics.counters import FaultCounters
from repro.metrics.latency import LatencyStats, cdf_points, percentile
from repro.metrics.summary import RunSummary, format_table

__all__ = [
    "FaultCounters",
    "LatencyStats",
    "percentile",
    "cdf_points",
    "RunSummary",
    "format_table",
]
