"""Differential conformance suite for memory-aware serving (DESIGN.md §15).

Same contract shape as ``tests/test_slo_policies.py`` for the lazy kick:

1. **No-spec bit-identity** — a server running the ``memory_aware``
   formation with *no* :class:`~repro.gpu.MemorySpec` is
   outcome-fingerprint-identical to the paper formation, for every
   queue-priority policy and both formation paths.  The policy must be
   perfectly inert until a spec gives it a budget.
2. **Budget safety** — with a spec, on the dynamic-decode Seq2Seq
   workload across every chaos seed: no device ever overcommits
   (``peak_reserved <= capacity``) and the accounting telescopes to zero
   at drain, for both the aware formation and the oblivious baseline.
3. **Pressure responses** — the oblivious baseline OOM-cancels under
   pressure where the aware formation defers/evicts and finishes more;
   the admission threshold sheds arrivals with ``"memory_shed"``.
4. **Registry plumbing** — MemorySpec rides ServerSpec/ClusterSpec
   through the JSON round trip, and a non-batchmaker spec carrying one is
   rejected at build time.
"""

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.gpu.memory import DEFAULT_STATE_BYTES, MemorySpec
from repro.models import LSTMChainModel, Seq2SeqModel
from repro.policies import MemoryAwareFormation, bundle_from_names
from repro.registry import ServerSpec, build_server
from repro.registry.presets import (
    seq2seq_dynamic_cluster_spec,
    seq2seq_dynamic_spec,
    seq2seq_memory_spec,
)
from repro.workload import Seq2SeqDataset
from repro.workload.arrivals import PoissonArrivals

from .chaos_helpers import (
    assert_invariants,
    chaos_seeds,
    outcome_fingerprint,
    run_chaos,
)
from .oracles.bruteforce_scheduler import install_reference_scans


def _lstm_server(formation, priority=None, indexed=True, memory=None):
    """``indexed=False`` schedules by the brute-force scans of
    ``tests/oracles/bruteforce_scheduler.py``."""
    config = BatchingConfig.with_max_batch(32)
    server = BatchMakerServer(
        LSTMChainModel(),
        config=config,
        num_gpus=1,
        memory=memory,
        policies=bundle_from_names(priority=priority, formation=formation
        ),
    )
    return server if indexed else install_reference_scans(server)


def _dynamic_server(formation, memory, num_gpus=2):
    """The fig_memory setting, shrunk: dynamic-decode Seq2Seq under a
    tight per-device state budget."""
    config = BatchingConfig.with_max_batch(
        64,
        per_cell_max={"decoder": 32},
        per_cell_priority={"decoder": 1, "encoder": 0},
    )
    return BatchMakerServer(
        Seq2SeqModel(dynamic=True),
        config=config,
        num_gpus=num_gpus,
        memory=memory,
        policies=(
            bundle_from_names(formation=formation)
            if formation is not None
            else None
        ),
    )


def _run_dynamic(server, rate=300.0, num_requests=150, arrival_seed=7):
    # max_length=20 keeps every request's worst-case footprint (1 encoder
    # + 20 decoder states) inside the 24-state test budget: pressure comes
    # from concurrency, not from structurally-impossible requests.
    dataset = Seq2SeqDataset(seed=1, max_length=20, dynamic=True)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(server.submit(dataset.sample_one(), arrival_time=when))
    server.drain()
    return submitted


def _tight_spec(capacity_requests=24, admission_free_requests=None):
    return seq2seq_memory_spec(
        capacity_requests=capacity_requests,
        admission_free_requests=admission_free_requests,
    )


# -- 1. no-spec bit-identity ------------------------------------------------


@pytest.mark.parametrize(
    "priority, indexed",
    [
        ("paper", True),
        ("paper", False),
        ("flat", True),
        ("longest_queue", True),
    ],
)
def test_memory_aware_inert_without_spec(priority, indexed):
    """paper vs memory_aware formation, same bundle otherwise, no
    MemorySpec: identical terminal outcomes, timestamps, counters and
    batch sizes."""
    fingerprints = []
    for formation in ("paper", "memory_aware"):
        server = _lstm_server(formation, priority=priority, indexed=indexed)
        submitted = run_chaos(server, rate=4000.0, num_requests=400)
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server))
    assert fingerprints[0] == fingerprints[1], (
        f"memory_aware not inert without a MemorySpec (priority={priority}, "
        f"indexed={indexed})"
    )
    policy = server.manager.policies.formation
    assert isinstance(policy, MemoryAwareFormation)
    assert not policy.active
    assert policy.deferrals == 0 == policy.evictions
    assert policy.oom_cancels == 0 == policy.sheds


def test_roomy_spec_changes_nothing_on_static_workload():
    """A budget nobody hits: same outcomes as no budget at all (the
    accounting is pure bookkeeping until a reservation is refused)."""
    roomy = MemorySpec(capacity=1 << 30)
    fingerprints = []
    for memory in (None, roomy):
        server = _lstm_server("memory_aware", memory=memory)
        submitted = run_chaos(server, rate=4000.0, num_requests=300)
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server, accounting=False))
    assert fingerprints[0] == fingerprints[1]


# -- 2. budget safety across chaos seeds ------------------------------------


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("formation", ["memory_aware", None])
def test_never_overcommits_and_telescopes_to_zero(formation, seed):
    """Aware formation and oblivious baseline alike: across every chaos
    seed, no device's reservation ever exceeded capacity and every byte
    of state was released by drain."""
    spec = _tight_spec(capacity_requests=24)
    server = _dynamic_server(formation, spec)
    submitted = _run_dynamic(server, arrival_seed=seed)
    assert_invariants(server, submitted)
    for worker in server.manager.workers:
        mem = worker.device.memory
        assert mem is not None
        assert mem.peak_reserved <= mem.capacity, (
            f"device {worker.worker_id} overcommitted: "
            f"{mem.peak_reserved} > {mem.capacity}"
        )
        assert mem.state_reserved == 0, (
            f"device {worker.worker_id} leaked {mem.state_reserved} B of state"
        )
        assert mem.live_requests() == 0
        # Weights stay resident for the device's lifetime.
        assert mem.weight_bytes == sum(spec.weights.values())
    # The workload actually exercised the budget, else this test is vacuous.
    assert any(
        w.device.memory.peak_reserved == w.device.memory.capacity
        for w in server.manager.workers
    ), "budget never reached capacity — tighten the test's spec"


# -- 3. pressure responses --------------------------------------------------


def test_oblivious_baseline_oom_cancels_at_the_wall():
    """The paper formation with a budget merely enforced: reservations
    that would overcommit cancel the request on the spot, with the
    ``"oom"`` reason."""
    server = _dynamic_server(None, _tight_spec(capacity_requests=24))
    submitted = _run_dynamic(server)
    assert_invariants(server, submitted)
    counters = server.fault_counters()
    assert counters.oom_cancellations > 0
    assert counters.memory_evictions == 0  # nothing evicts without the policy
    assert server.timed_out, "no request was OOM-cancelled"
    assert all(r.cancel_reason == "oom" for r in server.timed_out)


def test_aware_formation_outserves_oblivious():
    """Point for point on the same workload, the aware formation finishes
    at least as many requests and cancels strictly fewer."""
    outcomes = {}
    for name, formation in (("oblivious", None), ("aware", "memory_aware")):
        server = _dynamic_server(formation, _tight_spec(capacity_requests=24))
        submitted = _run_dynamic(server)
        assert_invariants(server, submitted)
        outcomes[name] = (len(server.finished), len(server.timed_out))
    assert outcomes["aware"][0] >= outcomes["oblivious"][0], outcomes
    assert outcomes["aware"][1] < outcomes["oblivious"][1], outcomes


def test_aware_formation_defers_and_evicts_under_pressure():
    server = _dynamic_server("memory_aware", _tight_spec(capacity_requests=24))
    submitted = _run_dynamic(server)
    assert_invariants(server, submitted)
    policy = server.manager.policies.formation
    assert policy.active
    assert policy.deferrals > 0, "budget never forced a deferral"
    counters = server.fault_counters()
    assert counters.memory_evictions == policy.evictions


def test_admission_threshold_sheds_arrivals():
    """With ``admission_free_bytes`` set, arrivals while every device is
    below the threshold are rejected at the front door."""
    spec = _tight_spec(capacity_requests=24, admission_free_requests=20)
    server = _dynamic_server("memory_aware", spec)
    submitted = _run_dynamic(server, rate=600.0)
    assert_invariants(server, submitted)
    policy = server.manager.policies.formation
    assert policy.sheds > 0, "threshold never shed an arrival"
    shed = [r for r in server.rejected if r.cancel_reason == "memory_shed"]
    assert len(shed) == policy.sheds


# -- 4. registry plumbing ---------------------------------------------------


def test_server_spec_memory_round_trip():
    spec = seq2seq_dynamic_spec(capacity_requests=24)
    assert spec.memory is not None
    restored = ServerSpec.from_dict(spec.to_dict())
    assert restored.memory == spec.memory
    server = build_server(restored)
    assert server.memory.spec == MemorySpec.from_dict(spec.memory)
    assert isinstance(server.manager.policies.formation, MemoryAwareFormation)
    for worker in server.manager.workers:
        assert worker.device.memory is not None
        assert worker.device.memory.weight_bytes > 0


def test_cluster_spec_memory_round_trip():
    from repro.registry import ClusterSpec

    spec = seq2seq_dynamic_cluster_spec(num_replicas=2)
    assert spec.memory is not None
    restored = ClusterSpec.from_dict(spec.to_dict())
    assert restored.memory == spec.memory
    assert restored.router == "most_free_memory"


def test_memory_on_baseline_engine_rejected():
    """The graph-batching baselines have no per-subgraph state to account;
    a memory spec on one is a config error caught at build time."""
    spec = ServerSpec(
        kind="padded",
        model="lstm",
        memory=MemorySpec(capacity=1 << 20).to_dict(),
    )
    with pytest.raises(ValueError, match="batchmaker"):
        build_server(spec)


def test_runtime_memory_override_wins():
    spec = seq2seq_dynamic_spec(capacity_requests=24)
    override = MemorySpec(capacity=1 << 28)
    server = build_server(spec, memory=override)
    assert server.memory.spec == override


def test_default_state_bytes_matches_preset():
    spec = seq2seq_memory_spec(capacity_requests=48)
    assert spec.state_bytes == DEFAULT_STATE_BYTES
    assert spec.capacity == sum(spec.weights.values()) + 48 * DEFAULT_STATE_BYTES
