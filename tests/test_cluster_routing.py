"""Routing policies: unit behaviour plus whole-workload properties."""

import pytest
from tests.chaos_helpers import chaos_seeds
from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)
from tests.oracles import bruteforce_cluster

from repro.cluster import AutoscalerConfig
from repro.cluster.replica import DRAINING, RETIRED, Replica
from repro.cluster.routing import (
    ROUTERS,
    make_router,
    payload_length,
    tie_break,
)
from repro.core.request import InferenceRequest
from repro.server import InferenceServer
from repro.sim.events import EventLoop


class _StubManager:
    """The two things ``Replica.projected_delay`` reads of a manager."""

    alive_devices = 1

    def __init__(self, delay):
        self.delay = delay

    def projected_queue_delay(self):
        return self.delay


class _StubServer(InferenceServer):
    """Terminal-list carrier for router unit tests (never runs), with a
    stub manager whose projected queueing delay is ``delay``."""

    def __init__(self, delay=0.0):
        super().__init__(EventLoop(), "stub")
        self.manager = _StubManager(delay)


def _replica(replica_id, outstanding=0, delay=0.0):
    replica = Replica(replica_id, _StubServer(delay))
    replica.routed = outstanding
    return replica


def _request(request_id, payload=8):
    return InferenceRequest(request_id, payload, 0.0)


def test_round_robin_cycles_in_replica_order():
    router = make_router("round_robin")
    replicas = [_replica(i) for i in range(3)]
    picks = [router.choose(_request(i), replicas).replica_id for i in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_least_outstanding_picks_min():
    router = make_router("least_outstanding")
    replicas = [_replica(0, 5), _replica(1, 2), _replica(2, 9)]
    assert router.choose(_request(0), replicas).replica_id == 1


def test_shortest_queue_uses_projected_delay():
    router = make_router("shortest_queue")
    replicas = [_replica(0, 4, delay=8.0), _replica(1, 6, delay=3.0)]
    assert router.choose(_request(0), replicas).replica_id == 1


def test_length_bucketed_groups_similar_lengths():
    router = make_router("length_bucketed", bucket_width=16)
    replicas = [_replica(0), _replica(1)]
    short = router.choose(_request(0, payload=5), replicas)
    also_short = router.choose(_request(1, payload=15), replicas)
    longer = router.choose(_request(2, payload=20), replicas)
    assert short.replica_id == also_short.replica_id
    assert longer.replica_id != short.replica_id


def test_length_bucketed_validates_width():
    with pytest.raises(ValueError):
        make_router("length_bucketed", bucket_width=0)


def test_tie_break_is_pure_and_seed_dependent():
    replicas = [_replica(i) for i in range(4)]
    picks_a = [tie_break(7, rid, replicas).replica_id for rid in range(64)]
    picks_b = [tie_break(7, rid, replicas).replica_id for rid in range(64)]
    picks_c = [tie_break(8, rid, replicas).replica_id for rid in range(64)]
    assert picks_a == picks_b  # pure function of (seed, request_id)
    assert picks_a != picks_c  # seed actually matters
    assert set(picks_a) == {0, 1, 2, 3}  # spreads over all candidates


def test_tie_break_never_uses_iteration_order():
    # The same (seed, request_id) must pick the same *replica id* no matter
    # how the tied list was assembled, as long as it is id-sorted.
    tied = [_replica(i) for i in (0, 1, 2)]
    rebuilt = [_replica(i) for i in (0, 1, 2)]
    for rid in range(32):
        assert (
            tie_break(5, rid, tied).replica_id
            == tie_break(5, rid, rebuilt).replica_id
        )


def test_payload_length_covers_all_shapes():
    class _Tree:
        def num_nodes(self):
            return 13

    assert payload_length(24) == 24
    assert payload_length({"src": 10, "tgt_len": 12}) == 22
    assert payload_length(_Tree()) == 13
    assert payload_length([1, 2, 3]) == 3
    assert payload_length(object()) == 0
    assert payload_length(True) == 0  # bools are not lengths


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_every_policy_serves_the_whole_workload(router):
    cluster = build_lstm_cluster(num_replicas=3, router=router, seed=7)
    submitted = run_cluster(cluster, rate=5000.0, num_requests=300)
    assert_cluster_invariants(cluster, submitted)
    assert len(cluster.finished) == 300  # no deadline -> everything finishes
    assert cluster.router.decisions == 300
    # Every policy must actually use the cluster (no policy collapses to a
    # single replica on this mixed-length workload).
    used = [replica for replica in cluster.replicas if replica.routed]
    assert len(used) >= 2, f"{router} routed everything to one replica"


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_same_workload_same_policy_identical_decisions(router):
    def decisions():
        cluster = build_lstm_cluster(num_replicas=3, router=router, seed=9)
        run_cluster(cluster, rate=5000.0, num_requests=250)
        return [replica.routed for replica in cluster.replicas], [
            (r.request_id, r.state.value, r.terminal_time)
            for r in sorted(
                cluster.terminal_requests(), key=lambda r: r.request_id
            )
        ]

    assert decisions() == decisions()


def test_make_router_names_the_unknown_param():
    """``router_params`` arrive from spec JSON: a key the policy does not
    take is a ValueError naming the router, the key and what it accepts —
    not a bare TypeError out of ``__init__``."""
    with pytest.raises(ValueError) as excinfo:
        make_router("round_robin", bucket_width=16)
    message = str(excinfo.value)
    assert "round_robin" in message
    assert "bucket_width" in message
    assert "none" in message  # round_robin accepts no parameters

    with pytest.raises(ValueError) as excinfo:
        make_router("length_bucketed", bucket_width=16, fast_path=False)
    message = str(excinfo.value)
    assert "length_bucketed" in message
    assert "fast_path" in message
    assert "accepts: ['bucket_width']" in message


def test_stop_routing_drains_every_alive_replica_and_retires_the_idle():
    """The live front end's graceful shutdown: every ALIVE replica turns
    DRAINING (still routable, as nothing is ALIVE), a busy one retires with
    its last outcome, an idle one at once."""
    cluster = build_lstm_cluster(num_replicas=3, router="least_outstanding", seed=5)
    submitted = [cluster.submit(24) for _ in range(2)]
    cluster.loop.run(max_events=2)  # both arrivals routed, nothing finished
    busy = [r for r in cluster.replicas if r.outstanding()]
    assert len(busy) == 2
    cluster.stop_routing()
    assert [r.state for r in busy] == [DRAINING, DRAINING]
    assert [r.state for r in cluster.replicas if r not in busy] == [RETIRED]
    assert cluster._routable == bruteforce_cluster.scan_candidates(cluster) == busy
    cluster.drain()
    assert_cluster_invariants(cluster, submitted)
    assert [r.state for r in cluster.replicas] == [RETIRED] * 3


# -- the per-decision oracle ------------------------------------------------

# Policy -> (the key it routes by, read back per candidate; the oracle's key).
LOAD_AWARE = {
    "least_outstanding": (Replica.outstanding, lambda r: r.outstanding()),
    "shortest_queue": (Replica.projected_delay, bruteforce_cluster.projected_delay),
    "predicted_delay": (Replica.predicted_delay, bruteforce_cluster.predicted_delay),
    "most_free_memory": (lambda r: -r.free_memory(), lambda r: -r.free_memory()),
    "cheapest_energy": (Replica.energy_cost, lambda r: r.energy_cost()),
}


def _install_oracle(cluster, routed_key, key):
    """Wrap ``router.choose``: before every decision, check the candidates
    against a fresh scan and the policy's key per candidate against the
    oracle's, then recompute the choice from scratch (every minimiser in
    candidate order, the seeded tie-break); the router must return the
    same replica.  Wrap
    ``_reconcile`` too: after every one — so at every arrival's decision —
    the cluster's terminal lists must hold what a reconcile of every
    replica from scratch would fold.  (A re-route inside a replica loss
    decides with only the lost replica folded, by design.)"""
    router = cluster.router
    original = router.choose  # bound method; instance attr shadows it below
    reconcile, reject = cluster._reconcile, cluster._reject
    oracle = bruteforce_cluster.ReconcileOracle()
    checked = {"decisions": 0, "reconciles": 0}

    def choose(request, candidates):
        assert candidates == bruteforce_cluster.scan_candidates(cluster), (
            f"decision {checked['decisions']}: candidates "
            f"{[r.replica_id for r in candidates]} are not a fresh scan"
        )
        keys = [key(replica) for replica in candidates]
        assert [routed_key(replica) for replica in candidates] == keys, (
            f"decision {checked['decisions']}: the policy's keys differ from "
            f"the oracle's {keys}"
        )
        best = min(keys)
        tied = [r for r, k in zip(candidates, keys) if k == best]
        expected = tie_break(router.seed, request.request_id, tied)
        actual = original(request, candidates)
        assert actual is expected, (
            f"decision {checked['decisions']}: router chose replica "
            f"{actual.replica_id}, oracle chose {expected.replica_id} "
            f"(request {request.request_id}, keys {keys})"
        )
        oracle.on_decision(request, actual)
        checked["decisions"] += 1
        return actual

    def checked_reconcile():
        reconcile()
        folded = [
            sorted(r.request_id for r in bucket)
            for bucket in (cluster._finished, cluster._timed_out, cluster._rejected)
        ]
        assert folded == oracle.terminal_ids(cluster), (
            f"reconcile {checked['reconciles']}: the cluster's terminal lists "
            "differ from a reconcile of every replica from scratch"
        )
        checked["reconciles"] += 1

    def recorded_reject(request, reason, counter=None):
        oracle.on_front_door_reject(request)
        reject(request, reason, counter)

    router.choose = choose
    cluster._reconcile = checked_reconcile
    cluster._reject = recorded_reject
    return checked


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("policy", sorted(LOAD_AWARE))
def test_every_decision_matches_brute_force_under_chaos(policy, seed):
    """Autoscaler churning the pool + a replica dying mid-run: every
    routing decision (re-routes included) equals an independent
    from-scratch min + tie-break over a freshly scanned candidate list,
    and every reconcile leaves the terminal lists a full rescan would."""
    cluster = build_lstm_cluster(
        num_replicas=3,
        router=policy,
        seed=seed,
        autoscaler=AutoscalerConfig(
            min_replicas=1,
            max_replicas=4,
            high_watermark=8.0,
            low_watermark=1.0,
            alpha=0.3,
            warmup=2e-3,
            cooldown=4e-3,
        ).to_dict(),
        replica_failures=[(0.01, 1)],
    )
    checked = _install_oracle(cluster, *LOAD_AWARE[policy])
    submitted = run_cluster(cluster, rate=8000.0, num_requests=800)
    assert_cluster_invariants(cluster, submitted)
    # Every submission routed at least once (re-routes add more).
    assert checked["decisions"] >= len(submitted) - (
        cluster.cluster_counters.cluster_rejections
        + cluster.cluster_counters.requests_lost
    )
    assert checked["decisions"] == cluster.router.decisions
    assert checked["reconciles"] >= len(submitted)
    # The pool really churned under the cached candidate lists.
    assert "spawn" in {action for _, action, _ in cluster.scale_events}
