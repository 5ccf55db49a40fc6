"""ClusterSpec serialisation and cluster construction."""

import json

import pytest

from repro.cluster import ClusterServer, build_cluster, make_router
from repro.cluster.autoscaler import AutoscalerConfig
from repro.registry import ClusterSpec, ServerSpec
from repro.registry.presets import (
    all_cluster_specs,
    fixed_tree_ideal_spec,
    lstm_batchmaker_spec,
    lstm_cluster_spec,
    lstm_padded_spec,
    seq2seq_cluster_spec,
    tree_dynet_spec,
)


def test_round_trips_through_json():
    spec = lstm_cluster_spec(
        num_replicas=3,
        router="shortest_queue",
        seed=11,
        autoscaler=AutoscalerConfig(max_replicas=5).to_dict(),
    )
    rebuilt = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec


def test_router_params_round_trip():
    spec = lstm_cluster_spec(
        router="length_bucketed", router_params={"bucket_width": 32}
    )
    rebuilt = ClusterSpec.from_dict(spec.to_dict())
    assert rebuilt.router_params == {"bucket_width": 32}
    cluster = build_cluster(rebuilt)
    assert cluster.router.bucket_width == 32


def test_unknown_router_param_in_spec_json_rejected_at_build():
    """A stored spec carrying a key the router does not take — a
    ``bucket_width`` on ``round_robin``, or the removed routing
    ``fast_path`` knob — loads, then fails at build with a ValueError that
    names the router and the key."""
    for router, key, value in (
        ("round_robin", "bucket_width", 32),
        ("shortest_queue", "fast_path", False),
    ):
        stored = lstm_cluster_spec(router=router).to_dict()
        stored["router_params"] = {key: value}
        spec = ClusterSpec.from_dict(json.loads(json.dumps(stored)))
        with pytest.raises(ValueError, match=f"{router}.*{key}"):
            build_cluster(spec)


def test_replica_must_be_server_spec():
    with pytest.raises(TypeError):
        ClusterSpec(replica={"kind": "batchmaker"}, num_replicas=2)


def test_replica_must_be_batchmaker():
    """The graph-batching baselines are comparators: no cluster routes to
    one, and a spec naming one is refused with its kind."""
    for spec in (lstm_padded_spec(), tree_dynet_spec(), fixed_tree_ideal_spec()):
        with pytest.raises(ValueError, match=f"replica.*batchmaker.*{spec.kind}"):
            ClusterSpec(replica=spec, num_replicas=2)


def test_num_replicas_validated():
    with pytest.raises(ValueError):
        ClusterSpec(replica=lstm_batchmaker_spec(), num_replicas=0)


def test_unknown_router_rejected_at_build():
    spec = lstm_cluster_spec().replace(router="hash_ring")
    with pytest.raises(KeyError):
        build_cluster(spec)


def test_replace_swaps_fields():
    spec = lstm_cluster_spec(num_replicas=2, router="round_robin")
    other = spec.replace(num_replicas=4, router="least_outstanding")
    assert other.num_replicas == 4
    assert other.router == "least_outstanding"
    assert spec.num_replicas == 2  # original untouched
    assert other.replica == spec.replica


def test_all_cluster_presets_build():
    for name, spec in all_cluster_specs().items():
        cluster = build_cluster(spec)
        assert isinstance(cluster, ClusterServer), name
        assert len(cluster.replicas) == spec.num_replicas
        assert cluster.router.name == spec.router
        assert isinstance(spec.replica, ServerSpec)


def test_cluster_builds_named_replicas():
    cluster = build_cluster(lstm_cluster_spec(num_replicas=3))
    names = [replica.server.name for replica in cluster.replicas]
    assert len(set(names)) == 3  # distinct per-replica names


def test_seq2seq_cluster_builds():
    spec = seq2seq_cluster_spec(num_replicas=2)
    cluster = build_cluster(spec)
    assert len(cluster.replicas) == 2


def test_autoscaler_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(min_replicas=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_replicas=4, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(low_watermark=10.0, high_watermark=5.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(alpha=0.0)
    config = AutoscalerConfig(max_replicas=6, warmup=1e-3)
    assert AutoscalerConfig.from_dict(config.to_dict()).to_dict() == config.to_dict()


def test_num_replicas_below_autoscaler_min_rejected():
    spec = lstm_cluster_spec(
        num_replicas=1,
        autoscaler=AutoscalerConfig(min_replicas=2).to_dict(),
    )
    with pytest.raises(ValueError):
        build_cluster(spec)


def test_make_router_rejects_unknown():
    with pytest.raises(KeyError):
        make_router("power_of_two")
