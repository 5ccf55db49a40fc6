"""Autoscaler properties: scale-up under load, scale-down when idle,
bounds respected, warm-up paid, deterministic timelines."""

from tests.cluster_helpers import (
    assert_cluster_invariants,
    build_lstm_cluster,
    run_cluster,
)

from repro.cluster import ALIVE, RETIRED, WARMING, AutoscalerConfig


def _config(**overrides):
    base = dict(
        min_replicas=1,
        max_replicas=4,
        high_watermark=16.0,
        low_watermark=1.0,
        alpha=0.3,
        warmup=2e-3,
        cooldown=4e-3,
    )
    base.update(overrides)
    return AutoscalerConfig(**base).to_dict()


def test_scales_up_under_heavy_load():
    cluster = build_lstm_cluster(
        num_replicas=1, router="least_outstanding", seed=7,
        autoscaler=_config(),
    )
    submitted = run_cluster(cluster, rate=12000.0, num_requests=1200)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.cluster_counters.replicas_spawned > 0
    assert len(cluster.replicas) > 1
    # Spawned replicas actually served work after warming up.
    assert any(r.routed > 0 for r in cluster.replicas[1:])
    actions = [action for _, action, _ in cluster.scale_events]
    assert actions.count("activate") == actions.count("spawn")


def test_never_exceeds_max_replicas():
    cluster = build_lstm_cluster(
        num_replicas=1, router="least_outstanding", seed=7,
        autoscaler=_config(max_replicas=2, cooldown=0.0),
    )
    run_cluster(cluster, rate=15000.0, num_requests=1500)
    assert len(cluster.replicas) <= 2


def test_scales_down_when_load_drops():
    # Heavy burst then a long trickle: the EWMA decays below the low
    # watermark and the surplus replicas drain and retire.
    cluster = build_lstm_cluster(
        num_replicas=3, router="least_outstanding", seed=7,
        autoscaler=_config(high_watermark=1000.0, low_watermark=2.0),
    )
    submitted = run_cluster(cluster, rate=800.0, num_requests=400)
    assert_cluster_invariants(cluster, submitted)
    assert cluster.cluster_counters.replicas_retired > 0
    retired = [r for r in cluster.replicas if r.state == RETIRED]
    assert retired
    for replica in retired:
        assert replica.outstanding() == 0  # drained, never killed work
    assert len(cluster.finished) == 400


def test_never_drains_below_min_replicas():
    cluster = build_lstm_cluster(
        num_replicas=2, router="round_robin", seed=5,
        autoscaler=_config(min_replicas=2, high_watermark=1000.0,
                           low_watermark=5.0),
    )
    run_cluster(cluster, rate=500.0, num_requests=200)
    serving = [r for r in cluster.replicas if r.state in (ALIVE, WARMING)]
    assert len(serving) >= 2
    assert cluster.cluster_counters.replicas_retired == 0


def test_warming_replicas_not_routable():
    cluster = build_lstm_cluster(
        num_replicas=1, router="least_outstanding", seed=7,
        autoscaler=_config(warmup=50e-3),  # longer than the whole run
    )
    run_cluster(cluster, rate=12000.0, num_requests=600)
    # Scale-ups happened but nothing was routed to a still-warming replica
    # before its activation event fired.
    for activated, action, replica_id in cluster.scale_events:
        if action != "activate":
            continue
        replica = next(
            r for r in cluster.replicas if r.replica_id == replica_id
        )
        for shadow in replica.server.terminal_requests():
            assert shadow.arrival_time >= activated


def test_zero_warmup_activates_immediately():
    cluster = build_lstm_cluster(
        num_replicas=1, router="least_outstanding", seed=7,
        autoscaler=_config(warmup=0.0),
    )
    run_cluster(cluster, rate=12000.0, num_requests=600)
    assert cluster.cluster_counters.replicas_spawned > 0
    spawns = {
        rid: t for t, action, rid in cluster.scale_events if action == "spawn"
    }
    activates = {
        rid: t
        for t, action, rid in cluster.scale_events
        if action == "activate"
    }
    assert spawns == activates  # same instants, replica by replica


def test_scaling_timeline_is_deterministic():
    def timeline():
        cluster = build_lstm_cluster(
            num_replicas=1, router="least_outstanding", seed=7,
            autoscaler=_config(),
        )
        run_cluster(cluster, rate=12000.0, num_requests=1000)
        return tuple(cluster.scale_events)

    first = timeline()
    assert first  # the load actually triggered scaling
    assert first == timeline()
