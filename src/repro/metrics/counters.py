"""Fault, retry and SLA counters.

One :class:`FaultCounters` instance per manager tallies what the failure
machinery actually did, so the chaos tests can reconcile engine-side
counts against per-request terminal outcomes and the stats report can
surface them next to throughput and latency.
"""

from __future__ import annotations

from typing import Dict, Tuple


class Counters:
    """Monotonic tallies: one int attribute per name in ``FIELDS``."""

    FIELDS: Tuple[str, ...] = ()

    def __init__(self):
        for field in self.FIELDS:
            setattr(self, field, 0)

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{field}={getattr(self, field)}"
            for field in self.FIELDS
            if getattr(self, field)
        )
        return f"<{type(self).__name__} {parts or 'clean'}>"


class FaultCounters(Counters):
    """Monotonic tallies of injected faults and SLA reactions."""

    FIELDS = (
        "kernel_failures_injected",   # draws that came up "fail"
        "stragglers_injected",        # draws that came up "slow"
        "device_failures",            # devices dropped by the plan
        "tasks_failed",               # task executions that did not retire OK
        "retries_attempted",          # task re-submissions scheduled
        "requests_timed_out",         # terminal: deadline or retries exhausted
        "requests_rejected",          # terminal: shed at admission
        "requests_completed",         # terminal: finished normally
        "memory_evictions",           # evict-and-restart preemptions
        "oom_cancellations",          # terminal: a reservation overcommitted
    )

    def any_faults(self) -> bool:
        """True when anything beyond normal completions was recorded."""
        return any(
            getattr(self, field)
            for field in self.FIELDS
            if field != "requests_completed"
        )
