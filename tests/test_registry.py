"""The server registry: spec round-trips and one construction path.

Every :class:`~repro.registry.ServerSpec` must round-trip exactly
(``from_dict(to_dict())``), survive JSON, and build the server it
describes with the spec attached; every configuration the fig*
experiments evaluate must construct through the registry.
"""

import json

import pytest

from repro.baselines import FoldServer, IdealServer, PaddedServer, TimeoutPaddedServer
from repro.cluster import AutoscalerConfig, build_cluster
from repro.core import BatchMakerServer, BatchingConfig
from repro.core.config import CellTypeConfig
from repro.faults import RetryPolicy, SLAConfig
from repro.gpu.energy import EnergySpec
from repro.gpu.memory import MemorySpec
from repro.registry import (
    KINDS,
    ClusterSpec,
    ServerSpec,
    build_server,
    make_model,
    presets,
)
from repro.sim.events import EventLoop
from repro.workload import LoadGenerator, SequenceDataset

EXPECTED_KIND_CLASSES = {
    "batchmaker": BatchMakerServer,
    "padded": PaddedServer,
    "timeout_padded": TimeoutPaddedServer,
    "fold": FoldServer,
    "ideal": IdealServer,
}


# One instance of every class that loads from a stored dict, each with a
# misspelling of one of its own keys (``pinning``: the removed option).
STORED_SPECS = [
    (presets.lstm_batchmaker_spec(), "num_gpu"),
    (presets.lstm_cluster_spec(), "num_replica"),
    (presets.lstm_serve_spec(), "drain_grac"),
    (SLAConfig(default_deadline=0.1), "default_deadlin"),
    (RetryPolicy(), "max_retry"),
    (MemorySpec(capacity=1 << 20), "state_byte"),
    (EnergySpec(), "idle_watt"),
    (BatchingConfig(), "pinning"),
    (AutoscalerConfig(), "max_replica"),
    (CellTypeConfig(), "batch_size"),
]
SPEC_IDS = [type(spec).__name__ for spec, _ in STORED_SPECS]
REPLACEABLE = [case for case in STORED_SPECS if hasattr(case[0], "replace")]


class TestSpecRoundTrip:
    @pytest.mark.parametrize("key", sorted(presets.all_fig_specs()))
    def test_dict_and_json_round_trip(self, key):
        spec = presets.all_fig_specs()[key]
        assert ServerSpec.from_dict(spec.to_dict()) == spec
        assert ServerSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("key", sorted(presets.all_fig_specs()))
    def test_build_attaches_spec_and_rebuilds(self, key):
        spec = presets.all_fig_specs()[key]
        server = build_server(spec)
        assert server.spec == spec
        assert isinstance(server, EXPECTED_KIND_CLASSES[spec.kind])
        # build -> spec -> build
        rebuilt = build_server(ServerSpec.from_dict(server.spec.to_dict()))
        assert rebuilt.spec == spec
        assert type(rebuilt) is type(server)
        assert rebuilt.name == server.name

    def test_replace_is_a_value_copy(self):
        spec = presets.lstm_batchmaker_spec()
        other = spec.replace(num_gpus=4)
        assert other.num_gpus == 4 and spec.num_gpus == 1
        assert other != spec

    @pytest.mark.parametrize("spec,typo", STORED_SPECS, ids=SPEC_IDS)
    def test_from_dict_rejects_a_key_it_does_not_read(self, spec, typo):
        """Stored specs are typed by hand: a misspelt or removed key used to
        load as the default (``SLAConfig.from_dict({"default_deadlin": 0.1})``
        had no deadline); now it is refused by name, with the accepted keys."""
        cls = type(spec)
        stored = json.loads(json.dumps(spec.to_dict()))
        assert cls.from_dict(stored).to_dict() == spec.to_dict()
        stored[typo] = 1
        with pytest.raises(ValueError, match=f"{cls.__name__}.*{typo}.*accepts"):
            cls.from_dict(stored)

    def test_nested_retry_block_is_checked_too(self):
        stored = SLAConfig().to_dict()
        stored["retry"]["max_retry"] = 1
        with pytest.raises(ValueError, match="RetryPolicy.*max_retry"):
            SLAConfig.from_dict(stored)

    @pytest.mark.parametrize(
        "spec, path, key",
        [
            pytest.param(spec, path, key, id=key)
            for spec, path, key in (
                (presets.lstm_serve_spec(), (), "drift_tolerance"),
                (SLAConfig(), (), "kick_margin"),
                (SLAConfig(), ("retry",), "backoff_factor"),
                (EnergySpec(), (), "power_exponent"),
                (EnergySpec(), (), "governor_params"),
                (presets.lstm_cluster_spec(), (), "energy"),
            )
        ],
    )
    def test_a_knob_that_became_a_constant_is_refused_by_name(self, spec, path, key):
        """Five settable values nobody set to anything but the default are
        module constants now (DESIGN.md §25); a stored dict that still
        carries one is refused by name, as ``fast_path`` and ``pinning`` are,
        instead of loading with the value silently dropped."""
        stored = json.loads(json.dumps(spec.to_dict()))
        block = stored
        for step in path:
            block = block[step]
        block[key] = 1.0
        with pytest.raises(ValueError, match=f"{key}.*accepts"):
            type(spec).from_dict(stored)

    @pytest.mark.parametrize(
        "spec,typo", REPLACEABLE, ids=[type(spec).__name__ for spec, _ in REPLACEABLE]
    )
    def test_replace_rejects_a_field_the_spec_does_not_have(self, spec, typo):
        """``lstm_batchmaker_spec().replace(num_gpu=4).num_gpus`` was 1."""
        with pytest.raises(ValueError, match=typo):
            spec.replace(**{typo: 4})

    def test_config_round_trips_exactly(self):
        config = BatchingConfig.with_max_batch(
            512,
            per_cell_max={"decoder": 256},
            per_cell_priority={"decoder": 1, "encoder": 0},
            max_tasks_to_submit=3,
        )
        assert BatchingConfig.from_dict(config.to_dict()) == config
        assert CellTypeConfig.from_dict(
            CellTypeConfig((1, 2, 4), priority=2).to_dict()
        ) == CellTypeConfig((1, 2, 4), priority=2)


class TestBuildServer:
    def test_kinds_enumerated(self):
        assert set(EXPECTED_KIND_CLASSES) == set(KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServerSpec(kind="mystery", model="lstm")

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            make_model("mystery")
        with pytest.raises(KeyError):
            build_server(ServerSpec(kind="padded", model="mystery"))

    def test_unknown_runtime_override_rejected(self):
        with pytest.raises(TypeError):
            build_server(presets.lstm_padded_spec(), fault_plan=object())

    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "max_task_to_submit"),  # a typo of max_tasks_to_submit
            ((), "fast_path"),  # the removed scheduler option
            (("default",), "batch_size"),
            (("per_cell", "lstm_step"), "prio"),
        ],
    )
    def test_unknown_config_key_in_spec_json_rejected_at_build(self, path, key):
        """A stored spec whose ``config`` block carries a key nothing reads
        loads, then fails at build with a ValueError naming the key and the
        accepted ones — it used to build with the default in its place."""
        stored = presets.lstm_batchmaker_spec().to_dict()
        stored["config"]["per_cell"]["lstm_step"] = {"priority": 1}
        block = stored["config"]
        for step in path:
            block = block[step]
        block[key] = 3
        spec = ServerSpec.from_dict(json.loads(json.dumps(stored)))
        with pytest.raises(ValueError, match=f"{key}.*accepts"):
            build_server(spec)
        cluster = presets.lstm_cluster_spec().to_dict()
        cluster["replica"] = stored
        with pytest.raises(ValueError, match=f"{key}.*accepts"):
            build_cluster(ClusterSpec.from_dict(json.loads(json.dumps(cluster))))

    def test_explicit_loop_is_used(self):
        loop = EventLoop()
        server = build_server(presets.lstm_batchmaker_spec(), loop=loop)
        assert server.loop is loop

    def test_policy_names_reach_the_bundle(self):
        spec = presets.seq2seq_batchmaker_spec(
            policies={"priority": "flat", "placement": "unpinned"}
        )
        server = build_server(spec)
        assert server.policies.names() == {
            "priority": "flat",
            "placement": "unpinned",
            "formation": "paper",
        }

    def test_registry_server_matches_direct_construction(self):
        """A registry-built BatchMaker decides identically to one built by
        hand from the same configuration (fixed seed)."""

        def fingerprint(server):
            result = LoadGenerator(rate=4000, num_requests=400, seed=7).run(
                server, SequenceDataset(seed=1)
            )
            return (
                server.tasks_submitted(),
                tuple(result.summary.stats.latencies),
            )

        from repro.models import LSTMChainModel

        direct = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(512),
            name="BatchMaker",
        )
        via_registry = build_server(presets.lstm_batchmaker_spec())
        assert fingerprint(via_registry) == fingerprint(direct)
