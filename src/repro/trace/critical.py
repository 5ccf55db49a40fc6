"""Critical-path latency attribution.

Walks each completed request's span tree in a :class:`TraceRecorder` and
attributes its end-to-end latency to six buckets::

    queue | compute | gather | padding | retry | routing

The attribution is a classified-interval sweep: every span that involves
the request contributes classified sub-intervals (a task span splits into
a gather/migration prefix and a compute remainder; a padded batch span
ends in a padding tail; failed-attempt spans and backoff windows are
retry; work done on a replica the request was later re-routed away from
is routing), intervals are clipped to ``[arrival, terminal]``, and each
elementary segment is charged to the highest-priority active class —
uncovered time is queueing.  Because the segments partition the request's
lifetime exactly, the bucket sum telescopes to the end-to-end latency
(the property the trace tests pin to 1e-9 s).

In cluster traces the ``cluster.route`` / ``cluster.reroute`` instants
map per-replica shadow ids back to the logical request, so the breakdown
spans replicas: time spent computing on a replica that died before the
request finished is charged to ``routing`` (wasted work), and the hop
count is reported per request.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.latency import percentile

from . import events as ev
from .events import SPAN, TraceEvent
from .recorder import TraceRecorder

# Sweep priority: lower wins when intervals overlap.
_PRIORITY = {
    ev.COMPUTE: 0,
    ev.GATHER: 1,
    ev.PADDING: 2,
    ev.RETRY: 3,
    ev.ROUTING: 4,
}


class RequestBreakdown:
    """One request's latency, split into the six buckets."""

    __slots__ = ("request_id", "outcome", "arrival", "terminal", "hops", "buckets")

    def __init__(
        self,
        request_id: int,
        outcome: str,
        arrival: float,
        terminal: float,
        hops: int,
        buckets: Dict[str, float],
    ):
        self.request_id = request_id
        self.outcome = outcome
        self.arrival = arrival
        self.terminal = terminal
        self.hops = hops
        self.buckets = buckets

    @property
    def latency(self) -> float:
        return self.terminal - self.arrival

    def bucket_sum(self) -> float:
        return sum(self.buckets[b] for b in ev.BUCKETS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{b}={self.buckets[b]:.6f}" for b in ev.BUCKETS)
        return (
            f"<RequestBreakdown req={self.request_id} {self.outcome} "
            f"lat={self.latency:.6f} {parts}>"
        )


class CriticalPath:
    """Per-request breakdowns plus per-bucket percentile aggregation."""

    def __init__(self, requests: List[RequestBreakdown], rejected: int = 0):
        self.requests = requests
        self.rejected = rejected

    @classmethod
    def from_recorder(cls, recorder: TraceRecorder) -> "CriticalPath":
        return _analyze(list(recorder))

    # -- aggregation --------------------------------------------------------
    def bucket_values(self, bucket: str) -> List[float]:
        if bucket not in ev.BUCKETS:
            raise ValueError(f"unknown bucket {bucket!r}; expected one of {ev.BUCKETS}")
        return [r.buckets[bucket] for r in self.requests]

    def bucket_percentile(self, bucket: str, p: float) -> float:
        return percentile(self.bucket_values(bucket), p)

    def mean_breakdown(self) -> Dict[str, float]:
        """Mean seconds per bucket across all analyzed requests."""
        if not self.requests:
            raise ValueError("no completed requests in trace")
        n = len(self.requests)
        return {
            b: sum(r.buckets[b] for r in self.requests) / n for b in ev.BUCKETS
        }


# ---------------------------------------------------------------------------
# analysis internals
# ---------------------------------------------------------------------------


def build_shadow_map(
    all_events: List[TraceEvent],
) -> Tuple[
    Dict[Tuple[Optional[int], int], int],
    Dict[int, int],
    Dict[int, Tuple[Optional[int], int]],
]:
    """Shadow lineage from the cluster routing instants.

    Returns ``((replica_id, shadow_id) -> logical_id, logical_id -> hops,
    logical_id -> final (replica_id, shadow_id))`` — the *final* shadow is
    the target of the latest route/re-route, the one whose engine events
    are authoritative for the logical request.  Engine-mode traces have no
    routing instants and all three maps are empty — every event then keys
    by its own request id.
    """
    shadow_to_logical: Dict[Tuple[Optional[int], int], int] = {}
    hops: Dict[int, int] = {}
    final_shadow: Dict[int, Tuple[Optional[int], int]] = {}
    for e in all_events:
        if e.name in (ev.CLUSTER_ROUTE, ev.CLUSTER_REROUTE) and e.args:
            logical = e.args["logical"]
            key = (e.args["replica"], e.args["shadow"])
            shadow_to_logical[key] = logical
            final_shadow[logical] = key  # buffer order is recording order
            hops[logical] = hops.get(logical, 0) + 1
    return shadow_to_logical, hops, final_shadow


def _analyze(all_events: List[TraceEvent]) -> CriticalPath:
    shadow_to_logical, hops, final_shadow = build_shadow_map(all_events)

    # Group events by logical request.  Task/batch spans list their member
    # request ids in args["requests"]; lifecycle events carry request_id.
    by_request: Dict[int, List[Tuple[TraceEvent, int]]] = {}

    def _credit(event: TraceEvent, rid: Optional[int]) -> None:
        if rid is None:
            return
        key = shadow_to_logical.get((event.replica_id, rid), rid) \
            if event.replica_id is not None else rid
        by_request.setdefault(key, []).append((event, rid))

    for e in all_events:
        if e.request_id is not None:
            _credit(e, e.request_id)
        if e.args and "requests" in e.args:
            for rid in e.args["requests"]:
                _credit(e, rid)

    breakdowns: List[RequestBreakdown] = []
    rejected = 0
    for logical, pairs in sorted(by_request.items()):
        result = _analyze_request(
            logical, pairs, final_shadow.get(logical), hops.get(logical, 0)
        )
        if result is None:
            continue
        if result.outcome == "rejected":
            rejected += 1
        else:
            breakdowns.append(result)
    return CriticalPath(breakdowns, rejected=rejected)


def _analyze_request(
    logical: int,
    pairs: List[Tuple[TraceEvent, int]],
    final_shadow: Optional[Tuple[Optional[int], int]],
    hops: int,
) -> Optional[RequestBreakdown]:
    arrival: Optional[float] = None
    terminal: Optional[TraceEvent] = None
    terminal_rank = -1
    for e, rid in pairs:
        if e.name == ev.REQUEST_ARRIVAL:
            if arrival is None or e.ts < arrival:
                arrival = e.ts
        elif e.name in ev.TERMINAL_EVENTS:
            # A shadow on a dead replica may record a teardown terminal the
            # cluster discarded — authoritative is, in order: the cluster's
            # own terminal (total-loss rejection), the final shadow's
            # terminal, then whatever is latest.
            if e.replica_id is None and final_shadow is not None:
                rank = 2
            elif final_shadow is None or (e.replica_id, rid) == final_shadow:
                rank = 1
            else:
                rank = 0
            if rank > terminal_rank or (
                rank == terminal_rank and terminal is not None and e.ts >= terminal.ts
            ):
                terminal = e
                terminal_rank = rank

    if arrival is None or terminal is None:
        return None  # sampled-out or still in flight at drain
    if terminal.name == ev.REQUEST_REJECTED:
        return RequestBreakdown(
            logical, "rejected", arrival, terminal.ts, hops,
            {b: 0.0 for b in ev.BUCKETS},
        )

    # Classified intervals, clipped later to [arrival, terminal].
    intervals: List[Tuple[float, float, int]] = []

    def _add(start: float, end: float, cls: str) -> None:
        if end > start:
            intervals.append((start, end, _PRIORITY[cls]))

    for e, rid in pairs:
        if e.kind != SPAN:
            continue
        # Work done under a shadow that is not the final one is wasted
        # cross-replica work (the request was re-routed away from it):
        # charge it to routing.
        if final_shadow is not None and e.replica_id is not None and \
                (e.replica_id, rid) != final_shadow:
            _add(e.ts, e.end, ev.ROUTING)
            continue
        if e.cat == ev.RETRY:
            _add(e.ts, e.end, ev.RETRY)
        elif e.name == ev.TASK:
            overhead = 0.0
            if e.args:
                overhead = e.args.get("gather", 0.0) + e.args.get("migration", 0.0)
            overhead = min(overhead, e.dur)
            _add(e.ts, e.ts + overhead, ev.GATHER)
            _add(e.ts + overhead, e.end, ev.COMPUTE)
        elif e.name == ev.BATCH:
            pad = 0.0
            if e.args and "padding" in e.args:
                idx = list(e.args["requests"]).index(rid)
                pad = min(e.args["padding"][idx], e.dur)
            _add(e.ts, e.end - pad, ev.COMPUTE)
            _add(e.end - pad, e.end, ev.PADDING)
        elif e.cat in _PRIORITY:
            _add(e.ts, e.end, e.cat)

    buckets = _sweep(arrival, terminal.ts, intervals)
    outcome = "finished" if terminal.name == ev.REQUEST_FINISHED else "timed_out"
    return RequestBreakdown(logical, outcome, arrival, terminal.ts, hops, buckets)


def _sweep(
    arrival: float, end: float, intervals: List[Tuple[float, float, int]]
) -> Dict[str, float]:
    """Charge each elementary segment of [arrival, end] to one bucket."""
    rank_to_bucket = {rank: bucket for bucket, rank in _PRIORITY.items()}
    buckets = {b: 0.0 for b in ev.BUCKETS}

    clipped = []
    bounds = {arrival, end}
    for start, stop, rank in intervals:
        start = max(start, arrival)
        stop = min(stop, end)
        if stop > start:
            clipped.append((start, stop, rank))
            bounds.add(start)
            bounds.add(stop)

    ordered = sorted(bounds)
    for a, b in zip(ordered, ordered[1:]):
        best: Optional[int] = None
        for start, stop, rank in clipped:
            if start <= a and stop >= b and (best is None or rank < best):
                best = rank
        bucket = ev.QUEUE if best is None else rank_to_bucket[best]
        buckets[bucket] += b - a
    return buckets
