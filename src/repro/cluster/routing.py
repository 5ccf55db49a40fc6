"""Front-end routing policies.

A routing policy picks the replica that serves a newly arrived request.
Candidates are always presented in ascending ``replica_id`` order — never
dict/set iteration order — and every tie between equally attractive
replicas is broken by :func:`tie_break`, a pure function of
``(seed, request_id)`` over the tied ids (the determinism rule in
DESIGN.md §11).  Re-running a workload therefore reproduces the exact
routing decision sequence bit for bit.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Sequence, Type

from repro.cluster.replica import Replica
from repro.core.request import InferenceRequest
from repro.faults import mix64


def tie_break(seed: int, request_id: int, tied: Sequence[Replica]) -> Replica:
    """Deterministic choice among equally good replicas: a stable integer
    mix of ``(seed, request_id)`` indexes the tied list (which callers keep
    in replica-id order).  No ``hash()``, no iteration-order dependence."""
    if len(tied) == 1:
        return tied[0]
    return tied[mix64(seed, request_id) % len(tied)]


def payload_length(payload: Any) -> int:
    """A request's scheduling-relevant length, for length-bucketed routing.

    Covers every payload shape the workloads produce: bare int lengths
    (chain models), token lists, seq2seq ``{"src", "tgt_len"}`` dicts and
    tree payloads (node count); anything else buckets as length 0.
    """
    if isinstance(payload, bool):
        return 0
    if isinstance(payload, int):
        return payload
    if isinstance(payload, dict):
        return int(payload.get("src", 0)) + int(payload.get("tgt_len", 0))
    num_nodes = getattr(payload, "num_nodes", None)
    if callable(num_nodes):
        return int(num_nodes())
    try:
        return len(payload)
    except TypeError:
        return 0


class RoutingPolicy:
    """Picks one of the candidate replicas for an arriving request.

    ``candidates`` is non-empty and sorted by ``replica_id``; the policy
    must not mutate it.  ``now`` is the decision's time, read once by the
    caller.  A policy may keep internal state (the round-robin
    cursor), but that state must evolve only through ``choose`` calls so
    a fixed workload replays to the same decisions.

    A load-aware policy is one key per candidate handed to :meth:`_best`:
    every decision reads each candidate's load afresh, one call per
    candidate (DESIGN.md §13 has the measurements behind "routing is a
    scan"), and a key that depends on the time takes ``now`` instead of
    reading the clock per candidate (DESIGN.md §40).
    """

    name = "?"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.decisions = 0

    def choose(
        self, request: InferenceRequest, candidates: List[Replica], now: float
    ) -> Replica:
        self.decisions += 1
        return self._choose(request, candidates, now)

    def _choose(
        self, request: InferenceRequest, candidates: List[Replica], now: float
    ) -> Replica:
        raise NotImplementedError

    def _best(
        self,
        request: InferenceRequest,
        candidates: List[Replica],
        keys: List[float],
    ) -> Replica:
        """Min-by-key with the seeded tie-break over all minimisers:
        ``keys`` holds each candidate's key in candidate order, and one
        pass keeps every minimiser in candidate (= replica-id) order for
        :func:`tie_break`."""
        best = keys[0]
        tied = []
        for replica, k in zip(candidates, keys):
            if k < best:
                best = k
                tied = [replica]
            elif k == best:
                tied.append(replica)
        return tie_break(self.seed, request.request_id, tied)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} seed={self.seed} decisions={self.decisions}>"


class RoundRobinRouter(RoutingPolicy):
    """Cycle through the candidates in replica-id order.  Oblivious to
    load and length — the baseline every smarter policy is judged against."""

    name = "round_robin"

    def _choose(self, request, candidates, now):
        # decisions was already incremented; index with the pre-increment
        # value so the cycle starts at replica 0.
        return candidates[(self.decisions - 1) % len(candidates)]


class LeastOutstandingRouter(RoutingPolicy):
    """Send to the replica with the fewest in-flight requests — the classic
    front-end balancer (ties seeded)."""

    name = "least_outstanding"

    def _choose(self, request, candidates, now):
        return self._best(request, candidates, [r.outstanding() for r in candidates])


class ShortestQueueRouter(RoutingPolicy):
    """Join the shortest queue by *projected delay* rather than raw count:
    each replica reports its EWMA-estimated queueing delay (device backlog
    plus estimated drain time of queued work), so a replica stuck behind a
    few long sequences looks longer than one with many short ones."""

    name = "shortest_queue"

    def _choose(self, request, candidates, now):
        return self._best(
            request, candidates, [r.manager.projected_queue_delay(now) for r in candidates]
        )


class PredictedDelayRouter(RoutingPolicy):
    """Join the queue with the smallest *predicted* wait: each replica's
    EWMA inter-finish gap (its observed completion rate, folded from its
    own finished shadows) times its outstanding count, by Little's law
    (``Replica.predicted_delay``).  Falls back to the projected-delay
    estimate per replica until it has seen a finish, so the first
    decisions match ``shortest_queue``."""

    name = "predicted_delay"

    def _choose(self, request, candidates, now):
        return self._best(request, candidates, [r.predicted_delay(now) for r in candidates])


class MostFreeMemoryRouter(RoutingPolicy):
    """Send to the replica with the most free device memory — the routing
    arm of memory-aware serving (DESIGN.md §15).  A dynamic-decode request
    holds hidden-state bytes for an unknown number of steps, so spreading
    by free bytes (rather than in-flight count) keeps any one replica from
    evicting while others have headroom.  Replicas without a memory model
    report infinite free bytes: they all tie and the seeded tie-break
    degrades this to uniform routing."""

    name = "most_free_memory"

    def _choose(self, request, candidates, now):
        return self._best(request, candidates, [-r.free_memory() for r in candidates])


class CheapestEnergyRouter(RoutingPolicy):
    """Send to the replica with the cheapest estimated marginal joules —
    the routing arm of energy-aware serving (DESIGN.md §17).  A replica's
    key is its cheapest alive device's dynamic power times its EWMA
    per-node service time, so a fleet mixing device classes (or DVFS
    states) steers work toward low-power replicas until their queues push
    the delay-side cost up.  Replicas without an energy model report 0.0:
    they all tie and the seeded tie-break degrades this to uniform
    routing (the free-memory inertness pattern)."""

    name = "cheapest_energy"

    def _choose(self, request, candidates, now):
        return self._best(request, candidates, [r.energy_cost() for r in candidates])


class LengthBucketedRouter(RoutingPolicy):
    """Send similar-length requests to the same replica.

    Requests whose lengths fall in the same ``bucket_width``-wide band
    land on the same replica (bucket index modulo the candidate count), so
    each replica's queues hold cells at similar progress — denser batches
    at the cost of ignoring instantaneous load.  Deterministic with no
    ties: the decision is a pure function of the payload length and the
    candidate count.
    """

    name = "length_bucketed"

    def __init__(self, seed: int = 0, bucket_width: int = 16):
        super().__init__(seed)
        if bucket_width < 1:
            raise ValueError("bucket_width must be >= 1")
        self.bucket_width = int(bucket_width)

    def _choose(self, request, candidates, now):
        bucket = payload_length(request.payload) // self.bucket_width
        return candidates[bucket % len(candidates)]


class ClassAffinityRouter(LengthBucketedRouter):
    """Length-bucketed routing that respects heterogeneous device classes.

    Each candidate carries the ``class_rank`` its replica was built with
    (declaration order in the cluster spec's ``device_classes``; 0 for a
    homogeneous fleet).  The request's length bucket indexes the sorted
    distinct ranks present among the candidates — bucket 0 lands on the
    first-declared class, bucket 1 on the second, and buckets past the
    last class saturate there.  Declare the cheap/slow class first and
    short requests stay on it while long ones graduate to the fast
    expensive class.  Within the chosen class, ``bucket % group size``
    keeps similar lengths together (the length-bucketed property).
    Deterministic with no ties: a pure function of the payload length and
    the candidates' class ranks.  On a homogeneous fleet every candidate
    has rank 0 and this degrades to :class:`LengthBucketedRouter`.
    """

    name = "class_affinity"

    def _choose(self, request, candidates, now):
        bucket = payload_length(request.payload) // self.bucket_width
        ranks = sorted({replica.class_rank for replica in candidates})
        rank = ranks[min(bucket, len(ranks) - 1)]
        group = [r for r in candidates if r.class_rank == rank]
        return group[bucket % len(group)]


ROUTERS: Dict[str, Type[RoutingPolicy]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingRouter.name: LeastOutstandingRouter,
    ShortestQueueRouter.name: ShortestQueueRouter,
    PredictedDelayRouter.name: PredictedDelayRouter,
    MostFreeMemoryRouter.name: MostFreeMemoryRouter,
    CheapestEnergyRouter.name: CheapestEnergyRouter,
    LengthBucketedRouter.name: LengthBucketedRouter,
    ClassAffinityRouter.name: ClassAffinityRouter,
}


def make_router(name: str, seed: int = 0, **params: Any) -> RoutingPolicy:
    """Instantiate a routing policy by registered name.  ``params`` come
    from spec JSON (``ClusterSpec.router_params``), so a key the policy's
    constructor does not take is rejected by name here."""
    cls = ROUTERS.get(name)
    if cls is None:
        raise KeyError(f"unknown routing policy {name!r} (have: {sorted(ROUTERS)})")
    accepted = sorted(set(inspect.signature(cls).parameters) - {"seed"})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"routing policy {name!r} does not accept router_params "
            f"{unknown} (accepts: {accepted if accepted else 'none'})"
        )
    return cls(seed=seed, **params)
