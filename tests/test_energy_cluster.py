"""Heterogeneous fleets: device classes, energy-aware routing, per-class
stats (DESIGN.md §17).

The routing contract matches every other load-aware policy
(``tests/test_cluster_routing.py``): every decision must equal an
independent from-scratch min + seeded tie-break over the candidates.
On top of that, heterogeneity itself: class identity and
re-calibrated cost models on build, class-affinity length bucketing,
autoscaler spawns rebalancing toward the declared mix, and the per-class
``ClusterStats`` breakdown the replica-mix sweep reads.
"""

from __future__ import annotations

import pytest

from tests.chaos_helpers import chaos_seeds
from tests.cluster_helpers import assert_cluster_invariants

from repro.cluster import build_cluster
from repro.cluster.routing import payload_length, tie_break
from repro.registry import ClusterSpec
from repro.registry.presets import (
    eco_energy_spec,
    lstm_batchmaker_spec,
    lstm_hetero_cluster_spec,
)
from repro.workload import SequenceDataset
from repro.workload.arrivals import PoissonArrivals


def _cluster(
    eco=1,
    v100=2,
    router="cheapest_energy",
    seed=0,
    bucket_width=32,
    autoscaler=None,
):
    spec = lstm_hetero_cluster_spec(
        eco_replicas=eco,
        v100_replicas=v100,
        router=router,
        seed=seed,
        bucket_width=bucket_width,
        autoscaler=autoscaler,
    )
    return build_cluster(spec)


def _run(cluster, rate=2000.0, num_requests=200, arrival_seed=7):
    dataset = SequenceDataset(seed=1)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(cluster.submit(dataset.sample_one(), arrival_time=when))
    cluster.drain()
    return submitted


def _fingerprint(cluster):
    return tuple(
        (r.request_id, r.state.value, r.terminal_time, r.retries)
        for r in sorted(
            cluster.finished + cluster.timed_out + cluster.rejected,
            key=lambda r: r.request_id,
        )
    )


# -- heterogeneous build ----------------------------------------------------


def test_build_assigns_class_identity_in_declaration_order():
    cluster = _cluster(eco=1, v100=2)
    eco, first_v100, second_v100 = cluster.replicas
    assert eco.device_class == "eco"
    assert eco.class_rank == 0
    for replica in (first_v100, second_v100):
        assert replica.device_class == "v100"
        assert replica.class_rank == 1


def test_class_cost_model_and_energy_installed():
    cluster = _cluster(eco=1, v100=1)
    eco, v100 = cluster.replicas
    # The eco class is a uniform 3x slowdown of the calibrated model; its
    # tables carry the structured scaled name and its devices the low-power
    # envelope.
    for worker in eco.server.manager.workers:
        for table in worker.cost_model.tables().values():
            assert table.name.endswith("@x3")
        assert worker.device.energy.idle_watts == 10.0
        assert worker.device.energy.active_watts == 60.0
    for worker in v100.server.manager.workers:
        for table in worker.cost_model.tables().values():
            assert "@x" not in table.name
        assert worker.device.energy.idle_watts == 50.0
    # Eco kernels really run 3x slower than v100 kernels at equal batch.
    eco_worker = eco.server.manager.workers[0]
    v100_worker = v100.server.manager.workers[0]
    eco_table = next(iter(eco_worker.cost_model.tables().values()))
    v100_table = next(iter(v100_worker.cost_model.tables().values()))
    assert eco_table(64) == pytest.approx(3.0 * v100_table(64))


def test_homogeneous_cluster_has_no_class_identity():
    from repro.registry.presets import lstm_cluster_spec

    cluster = build_cluster(lstm_cluster_spec(num_replicas=2))
    for replica in cluster.replicas:
        assert replica.device_class is None
        assert replica.class_rank == 0
        assert replica.energy_cost() == 0.0  # inert without an EnergySpec


# -- cheapest_energy routing ------------------------------------------------


@pytest.mark.parametrize("seed", chaos_seeds())
def test_cheapest_energy_every_decision_matches_brute_force(seed):
    cluster = _cluster(eco=1, v100=2, seed=seed)
    router = cluster.router
    original = router.choose
    checked = {"decisions": 0}

    def choose(request, candidates):
        keys = [replica.energy_cost() for replica in candidates]
        best = min(keys)
        tied = [r for r, k in zip(candidates, keys) if k == best]
        expected = tie_break(router.seed, request.request_id, tied)
        actual = original(request, candidates)
        assert actual is expected, (
            f"decision {checked['decisions']}: router chose "
            f"{actual.replica_id}, oracle chose {expected.replica_id}"
        )
        checked["decisions"] += 1
        return actual

    router.choose = choose
    submitted = _run(cluster, arrival_seed=seed)
    assert_cluster_invariants(cluster, submitted)
    assert checked["decisions"] > 0


def test_cheapest_energy_prefers_low_watt_replicas():
    """At a rate the eco replica can absorb, the low-watt class takes the
    bulk of the traffic (60 W vs 250 W dynamic draw at similar EWMA node
    time would need a 4x speed gap to flip — 3x isn't it)."""
    cluster = _cluster(eco=1, v100=2)
    submitted = _run(cluster, rate=500.0, num_requests=200)
    assert_cluster_invariants(cluster, submitted)
    eco = cluster.replicas[0]
    v100_routed = sum(r.routed for r in cluster.replicas[1:])
    assert eco.routed > v100_routed


# -- class_affinity routing -------------------------------------------------


def test_class_affinity_maps_length_buckets_to_ranks():
    cluster = _cluster(eco=1, v100=2, router="class_affinity", bucket_width=32)
    router = cluster.router
    original = router.choose
    decisions = []

    def choose(request, candidates):
        chosen = original(request, candidates)
        decisions.append((payload_length(request.payload), chosen))
        return chosen

    router.choose = choose
    submitted = _run(cluster, num_requests=300)
    assert_cluster_invariants(cluster, submitted)
    assert decisions
    # Deterministic contract: bucket 0 (short requests) lands on rank 0
    # (the first-declared, eco, class); deeper buckets on rank 1.
    for length, replica in decisions:
        expected_rank = 0 if length // 32 == 0 else 1
        assert replica.class_rank == expected_rank, (
            f"request len={length} (bucket {length // 32}) "
            f"routed to {replica.device_class}"
        )
    assert cluster.replicas[0].routed > 0
    assert all(r.routed > 0 for r in cluster.replicas[1:])


def test_class_affinity_is_deterministic():
    fingerprints = []
    for _ in range(2):
        cluster = _cluster(eco=1, v100=2, router="class_affinity")
        submitted = _run(cluster)
        assert_cluster_invariants(cluster, submitted)
        fingerprints.append(_fingerprint(cluster))
    assert fingerprints[0] == fingerprints[1]


def test_class_affinity_validates_bucket_width():
    from repro.cluster.routing import ClassAffinityRouter

    with pytest.raises(ValueError):
        ClassAffinityRouter(bucket_width=0)


def test_class_affinity_degrades_on_homogeneous_fleet():
    """Without classes every replica has rank 0: the router becomes plain
    length-bucketed spreading and all replicas serve."""
    from repro.registry.presets import lstm_cluster_spec

    spec = lstm_cluster_spec(num_replicas=3, router="class_affinity")
    cluster = build_cluster(spec)
    submitted = _run(cluster, num_requests=300)
    assert_cluster_invariants(cluster, submitted)
    assert all(r.routed > 0 for r in cluster.replicas)


# -- per-class stats and fleet energy ---------------------------------------


def test_cluster_stats_break_down_by_class():
    cluster = _cluster(eco=1, v100=2)
    submitted = _run(cluster)
    assert_cluster_invariants(cluster, submitted)
    stats = cluster.stats()
    assert set(stats.by_class) == {"eco", "v100"}
    assert stats.by_class["eco"]["replicas"] == 1
    assert stats.by_class["v100"]["replicas"] == 2
    routed = sum(entry["routed"] for entry in stats.by_class.values())
    assert routed == sum(r.routed for r in cluster.replicas)
    finished = sum(entry["finished"] for entry in stats.by_class.values())
    assert finished == len(cluster.finished)
    for entry in stats.by_class.values():
        assert entry["joules"] > 0
    served = [e for e in stats.by_class.values() if e["finished"]]
    assert all(e["p99_ms"] > 0 for e in served)
    report = stats.report()
    assert "class" in report
    assert "J integrated" in report


def test_cluster_energy_joules_sums_replicas():
    cluster = _cluster(eco=1, v100=2)
    submitted = _run(cluster)
    assert_cluster_invariants(cluster, submitted)
    total = cluster.energy_joules()
    assert total > 0
    assert total == pytest.approx(
        sum(r.server.energy_joules() for r in cluster.replicas)
    )
    assert cluster.stats().total_joules == pytest.approx(total)


def test_homogeneous_stats_have_empty_by_class():
    from repro.registry.presets import lstm_cluster_spec

    cluster = build_cluster(lstm_cluster_spec(num_replicas=2))
    submitted = _run(cluster, num_requests=60)
    assert_cluster_invariants(cluster, submitted)
    stats = cluster.stats()
    assert stats.by_class == {}
    assert stats.total_joules == 0.0
    assert "J integrated" not in stats.report()


# -- autoscaler spawns rebalance toward the declared mix ---------------------


def test_spawn_class_picks_most_underprovisioned():
    cluster = _cluster(eco=1, v100=2)
    # Declared mix 1:2 is exactly met -> ties break in declaration order.
    assert cluster._pick_spawn_class() == 0
    spawned = cluster._spawn_replica(cluster.loop.now())
    assert spawned.device_class == "eco"
    # Now eco is over-provisioned (2/1 vs 2/2): the next spawn is a v100.
    assert cluster._pick_spawn_class() == 1
    spawned = cluster._spawn_replica(cluster.loop.now())
    assert spawned.device_class == "v100"
    for worker in spawned.server.manager.workers:  # the class's own 1x tables
        for table in worker.cost_model.tables().values():
            assert "@x" not in table.name
    # The spawned replicas carry working engines with class energy models.
    for replica in cluster.replicas[-2:]:
        for worker in replica.server.manager.workers:
            assert worker.device.energy is not None


# -- spec validation and round trip -----------------------------------------


def test_cluster_spec_device_classes_round_trip():
    spec = lstm_hetero_cluster_spec(eco_replicas=1, v100_replicas=2)
    restored = ClusterSpec.from_dict(spec.to_dict())
    assert restored.device_classes == spec.device_classes
    assert restored.router == "cheapest_energy"
    assert restored.device_classes[0]["energy"] == eco_energy_spec().to_dict()


@pytest.mark.parametrize(
    "classes",
    [
        [],  # empty list
        [{"name": "a", "replicas": 1}, {"name": "a", "replicas": 1}],  # dup
        [{"name": "a", "replicas": 1}],  # counts don't sum to num_replicas
        [{"name": "a", "replicas": 0}, {"name": "b", "replicas": 2}],
        [  # non-positive slowdown
            {"name": "a", "replicas": 1, "latency_scale": 0.0},
            {"name": "b", "replicas": 1},
        ],
        [{"name": "", "replicas": 2}],  # empty name
    ],
)
def test_cluster_spec_device_classes_validation(classes):
    with pytest.raises(ValueError):
        ClusterSpec(
            replica=lstm_batchmaker_spec(),
            num_replicas=2,
            device_classes=classes,
        )
