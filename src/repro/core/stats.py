"""Serving statistics: what the engine actually did.

Aggregates per-cell-type task counts and batch sizes, per-worker
utilisation and gather rates, and latency percentiles into a readable
report — the observability surface a production deployment of BatchMaker
would expose.
"""

from __future__ import annotations

from typing import Optional

from repro.metrics.latency import LatencyStats
from repro.metrics.summary import format_table


class ServerStats:
    """Snapshot of a BatchMaker server's counters."""

    def __init__(self, server):
        manager = server.manager
        self.server_name = server.name
        self.finished_requests = len(server.finished)
        self.tasks_submitted = manager.scheduler.tasks_submitted
        self.batch_size_counts = dict(manager.scheduler.batch_size_counts)
        self.nodes_processed = manager.processor.total_nodes_processed
        self.live_requests = manager.processor.live_request_count()
        # Fault/SLA counters (all zero on a healthy run).
        self.faults = manager.fault_counters.as_dict()
        self.any_faults = manager.fault_counters.any_faults()
        self.timed_out_requests = len(server.timed_out)
        self.rejected_requests = len(server.rejected)
        now = manager.loop.now()
        energy = server.energy  # the EnergyAccounting, if any
        self.energy_enabled = energy is not None
        self.total_joules = energy.total_joules() if self.energy_enabled else 0.0
        self.workers = []
        for worker in manager.workers:
            busy = worker.device.timeline.busy_time(until=now)
            row = {
                "worker_id": worker.worker_id,
                "tasks": worker.tasks_executed,
                "busy_time": busy,
                "utilization": busy / now if now > 0 else 0.0,
                "gathers": worker.gathers_performed,
                "gather_rate": (
                    worker.gathers_performed / worker.tasks_executed
                    if worker.tasks_executed
                    else 0.0
                ),
            }
            if self.energy_enabled:
                row["joules"] = energy.device_joules(worker)
                row["active_joules"] = worker.device.energy.active_joules
                row["frequency"] = worker.device.energy.frequency
            self.workers.append(row)
        self.latency: Optional[LatencyStats] = None
        if server.finished:
            self.latency = LatencyStats().extend(server.finished)

    # -- derived ------------------------------------------------------------------

    def mean_batch_size(self) -> float:
        total = sum(b * c for b, c in self.batch_size_counts.items())
        count = sum(self.batch_size_counts.values())
        return total / count if count else 0.0

    def batch_size_percentile(self, p: float) -> int:
        """Request-weighted batch-size percentile (what a typical *cell*
        experienced, not a typical task)."""
        if not self.batch_size_counts:
            raise ValueError("no tasks executed")
        weighted = []
        for batch, count in sorted(self.batch_size_counts.items()):
            weighted.append((batch, batch * count))
        total = sum(w for _, w in weighted)
        threshold = total * p / 100.0
        running = 0.0
        for batch, weight in weighted:
            running += weight
            if running >= threshold:
                return batch
        return weighted[-1][0]

    # -- rendering -----------------------------------------------------------------

    def report(self) -> str:
        lines = [f"=== {self.server_name} serving report ==="]
        lines.append(
            f"requests: {self.finished_requests} finished, "
            f"{self.live_requests} live; cells executed: {self.nodes_processed}; "
            f"tasks: {self.tasks_submitted} "
            f"(mean batch {self.mean_batch_size():.1f}, "
            f"cell-weighted p50 batch {self.batch_size_percentile(50)})"
        )
        headers = ["worker", "tasks", "busy ms", "utilization", "gather rate"]
        if self.energy_enabled:
            headers += ["joules", "freq"]
        rows = []
        for w in self.workers:
            row = [
                f"gpu{w['worker_id']}",
                str(w["tasks"]),
                f"{w['busy_time'] * 1e3:.1f}",
                f"{w['utilization']:.0%}",
                f"{w['gather_rate']:.0%}",
            ]
            if self.energy_enabled:
                row += [
                    f"{w.get('joules', 0.0):.2f}",
                    f"{w.get('frequency', 0.0):g}x",
                ]
            rows.append(row)
        lines.append(format_table(headers, rows))
        if self.energy_enabled:
            lines.append(f"energy: {self.total_joules:.2f} J integrated")
        if self.latency is not None:
            lines.append(
                "latency ms: "
                f"p50 {1e3 * self.latency.p(50):.2f}, "
                f"p90 {1e3 * self.latency.p(90):.2f}, "
                f"p99 {1e3 * self.latency.p(99):.2f} "
                f"(queuing p99 {1e3 * self.latency.p(99, 'queuing'):.2f})"
            )
        if self.any_faults or self.timed_out_requests or self.rejected_requests:
            f = self.faults
            lines.append(
                "faults: "
                f"{f['kernel_failures_injected']} kernel failures, "
                f"{f['stragglers_injected']} stragglers, "
                f"{f['device_failures']} device losses; "
                f"{f['retries_attempted']} retries; "
                f"{self.timed_out_requests} timed out, "
                f"{self.rejected_requests} rejected (load shed)"
            )
        return "\n".join(lines)
