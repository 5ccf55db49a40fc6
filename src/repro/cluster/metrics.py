"""Cross-replica metric aggregation.

One replica's engine already tallies its own :class:`FaultCounters`;
cluster reporting needs those *summed across replicas* plus the
cluster-only events (losses, re-routes, scale actions) that no single
engine can see.  ``ClusterStats`` renders the per-replica breakdown the
way ``ServerStats`` does for one server.
"""

from __future__ import annotations

from typing import Dict, List

from repro.metrics.counters import FaultCounters
from repro.metrics.latency import percentile
from repro.metrics.summary import format_table


class ClusterCounters:
    """Monotonic tallies of cluster-level events (the engine-level fault
    counters live per replica and are aggregated separately)."""

    FIELDS = (
        "replicas_lost",        # replica failures injected
        "requests_rerouted",    # live logical requests re-routed off a dead replica
        "requests_lost",        # in-flight requests rejected on total loss
        "cluster_rejections",   # arrivals rejected with no routable replica
        "replicas_spawned",     # autoscaler scale-ups
        "replicas_retired",     # autoscaler drains completed
        "sla_rejections",       # arrivals shed by SLO admission control
        "memory_rejections",    # arrivals shed by memory admission control
    )

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
        return f"<ClusterCounters {parts or 'clean'}>"


def aggregate_fault_counters(replicas) -> FaultCounters:
    """Sum every replica engine's fault counters (replicas without fault
    machinery — the graph-batching baselines — contribute zeros)."""
    total = FaultCounters()
    for replica in replicas:
        counters = getattr(replica.server, "fault_counters", None)
        if counters is None:
            continue
        for field, value in counters().as_dict().items():
            setattr(total, field, getattr(total, field) + value)
    return total


class ClusterStats:
    """Snapshot of a cluster's per-replica and aggregate state.

    On a heterogeneous fleet (replicas carrying a ``device_class``),
    ``by_class`` additionally breaks the fleet down per device class —
    replica counts, routed/finished tallies, the p99 over finished shadow
    latencies and the class's integrated joules — so energy experiments
    can read the replica-mix economics off one snapshot instead of only
    fleet-wide totals.  Empty for homogeneous clusters."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.rows: List[List[str]] = []
        self.by_class: Dict[str, Dict[str, float]] = {}
        self.total_joules = 0.0
        for replica in cluster.replicas:
            server = replica.server
            self.rows.append(
                [
                    str(replica.replica_id),
                    replica.state,
                    str(replica.routed),
                    str(len(server.finished)),
                    str(len(server.timed_out)),
                    str(len(server.rejected)),
                    str(replica.outstanding()),
                    f"{replica.ewma_latency * 1e3:.2f}",
                ]
            )
            self.total_joules += replica.energy_joules()
            if replica.device_class is None:
                continue
            entry = self.by_class.setdefault(
                replica.device_class,
                {
                    "replicas": 0,
                    "routed": 0,
                    "finished": 0,
                    "p99_ms": 0.0,
                    "joules": 0.0,
                    "_latencies": [],
                },
            )
            entry["replicas"] += 1
            entry["routed"] += replica.routed
            entry["finished"] += len(server.finished)
            entry["joules"] += replica.energy_joules()
            entry["_latencies"].extend(
                r.finish_time - r.arrival_time for r in server.finished
            )
        for entry in self.by_class.values():
            latencies = entry.pop("_latencies")
            if latencies:
                entry["p99_ms"] = percentile(latencies, 99.0) * 1e3

    def report(self) -> str:
        lines = [
            f"== {self.cluster.name}: {len(self.cluster.replicas)} replicas, "
            f"router={self.cluster.router.name} ==",
            format_table(
                [
                    "replica", "state", "routed", "finished", "timed_out",
                    "rejected", "outstanding", "ewma ms",
                ],
                self.rows,
            ),
        ]
        if self.by_class:
            lines.append(
                format_table(
                    ["class", "replicas", "routed", "finished", "p99 ms", "joules"],
                    [
                        [
                            name,
                            str(int(entry["replicas"])),
                            str(int(entry["routed"])),
                            str(int(entry["finished"])),
                            f"{entry['p99_ms']:.2f}",
                            f"{entry['joules']:.2f}",
                        ]
                        for name, entry in sorted(self.by_class.items())
                    ],
                )
            )
        if self.total_joules > 0:
            lines.append(f"energy: {self.total_joules:.2f} J integrated")
        cluster_counts = self.cluster.cluster_counters.as_dict()
        if any(cluster_counts.values()):
            lines.append(
                "cluster events: "
                + ", ".join(f"{k}={v}" for k, v in cluster_counts.items() if v)
            )
        engine = self.cluster.fault_counters()
        if engine.any_faults():
            lines.append(f"engine faults (aggregated): {engine!r}")
        return "\n".join(lines)
