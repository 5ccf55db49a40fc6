"""The committed outcome-fingerprint corpus (ROADMAP item 2).

"Bit-identical" is the contract for every refactor, and every fingerprint
test elsewhere compares two live runs through the *same* engine — a change
that moves both sides escapes them.  This package pins the engine to
hashes stored in ``fingerprints.json``: one declarative matrix of registry
specs (``matrix()``) x ``SEEDS`` -> one sha256 per configuration over
``tests.chaos_helpers.outcome_fingerprint`` (terminal state / exact time /
retries / restarts per request, completion order, batch-size histogram,
fault and cluster counters, scaling timeline, joules, per-device peak
reserved bytes).

* ``tests/test_golden.py`` recomputes the tier-1 slice on every run and
  the rest of the matrix under ``-m golden_full`` (the CI ``chaos`` job).
* A refactor PR leaves ``fingerprints.json`` untouched.  A behaviour PR
  runs ``python -m tests.golden --write`` and states the rows it prints
  as moved, and why.
* ``specs.json`` is the stored form (``to_dict()``) of every preset and of
  the config blocks below (``spec_blocks()``), written once and never
  regenerated.

The tier-1 slice is chosen so that every lifecycle hook of the engine
seam (DESIGN.md §22) fires in at least one row for at least one
subscriber: admission gates (``storm/shedding``, ``memory/shed``, the
cluster rows), task submit / done / failed (``storm/*``, ``memory/*``,
``energy/*``), terminal (everywhere), device loss (``storm/*``,
``*+device_loss``), and each ``+trace`` row must hash equal to its
untraced twin.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, NamedTuple, Optional, Tuple, Union

from repro.cluster import AutoscalerConfig, build_cluster
from repro.cluster.routing import ROUTERS
from repro.faults import FaultPlan, RetryPolicy, SLAConfig
from repro.registry import build_server
from repro.registry import presets
from repro.registry.specs import ClusterSpec, ServerSpec
from repro.trace import TraceRecorder
from repro.workload import Seq2SeqDataset, SequenceDataset, TreeDataset
from tests.chaos_helpers import outcome_fingerprint, run_chaos

SEEDS = (42, 1234)
PATH = Path(__file__).with_name("fingerprints.json")

DATASETS = {
    "sequence": lambda seed: SequenceDataset(seed=seed),
    "tree": lambda seed: TreeDataset(seed=seed),
    # max_length=20 keeps a request's worst-case footprint inside the
    # 24-state memory budgets below: pressure comes from concurrency.
    "seq2seq": lambda seed: Seq2SeqDataset(seed=seed, max_length=20),
    "seq2seq_dynamic": lambda seed: Seq2SeqDataset(
        seed=seed, max_length=20, dynamic=True
    ),
}


class Row(NamedTuple):
    """One configuration: a registry spec, the traffic it serves, and the
    runtime-only extras a spec cannot carry (fault plan, replica losses,
    an attached recorder).  ``tier1`` rows run on every test run."""

    spec: Union[ServerSpec, ClusterSpec]
    dataset: str
    rate: float
    requests: int
    deadline: Optional[float] = None
    faults: Optional[dict] = None  # FaultPlan kwargs; the seed is the row's
    replica_failures: Tuple = ()
    traced: bool = False
    tier1: bool = False


# -- building blocks --------------------------------------------------------

STORM = dict(kernel_failure_rate=0.08, straggler_rate=0.1, straggler_multiplier=5.0)
# The config values the matrix builds; rows carry their stored form.
STORM_SLA = SLAConfig(default_deadline=40e-3, retry=RetryPolicy(max_retries=2))
SHEDDING_SLA = SLAConfig(
    default_deadline=40e-3, max_queue_delay=2e-3, retry=RetryPolicy(max_retries=2)
)
LAZY_SLA = SLAConfig(default_deadline=20e-3, max_hold=1e-3)
PAIR_SLA = SLAConfig(
    default_deadline=60e-3, max_queue_delay=20e-3, retry=RetryPolicy(max_retries=2)
)
AUTOSCALER = AutoscalerConfig(
    min_replicas=2, max_replicas=4, high_watermark=12.0, low_watermark=1.0,
    alpha=0.5, warmup=2e-3, cooldown=4e-3,
)
PAIR_MEMORY = presets.seq2seq_memory_spec(24)
PAIR_ENERGY = presets.v100_energy_spec(governor="headroom")

# model -> (spec at ``gpus``, dataset, per-GPU rate, requests)
MODELS = {
    "lstm_chain": (
        lambda gpus: presets.lstm_batchmaker_spec(64, gpus), "sequence", 3000.0, 200,
    ),
    "gru_chain": (
        lambda gpus: presets.lstm_batchmaker_spec(64, gpus).replace(model="gru"),
        "sequence", 3000.0, 120,
    ),
    "tree_lstm": (
        lambda gpus: presets.tree_batchmaker_spec(64, gpus), "tree", 1000.0, 100,
    ),
    "seq2seq": (
        lambda gpus: presets.seq2seq_batchmaker_spec(64, 32, gpus),
        "seq2seq", 800.0, 100,
    ),
    "seq2seq_dynamic": (
        lambda gpus: presets.seq2seq_dynamic_spec(
            64, 32, gpus, capacity_requests=None, memory_aware=False
        ),
        "seq2seq_dynamic", 300.0, 80,
    ),
    "attention_seq2seq": (
        lambda gpus: presets.seq2seq_batchmaker_spec(64, 32, gpus).replace(
            model="attention_seq2seq"
        ),
        "seq2seq", 800.0, 60,
    ),
}
TIER1_MODELS = (
    "lstm_chain", "gru_chain", "tree_lstm", "seq2seq", "seq2seq_dynamic", "attention_seq2seq",
)
PLACEMENTS = ("pinned", "unpinned", "fixed")
FORMATIONS = ("paper", "no_mix", "lazy_kick", "memory_aware")


def _policies(spec: ServerSpec, **names: str) -> ServerSpec:
    return spec.replace(policies={**spec.policies, **names})


def _memory_spec(admission_free_requests: Optional[int] = None, **kwargs) -> ServerSpec:
    return presets.seq2seq_dynamic_spec(
        64, 32, 2, capacity_requests=24,
        admission_free_requests=admission_free_requests, **kwargs,
    )


def _energy_spec(governor: str, gpus: int = 1) -> ServerSpec:
    return presets.lstm_energy_spec(governor=governor, max_batch=64, num_gpus=gpus)


def _traced(row: Row) -> Row:
    return row._replace(traced=True)


def matrix() -> Dict[str, Row]:
    """Every configuration, by name.  Insertion order is the run order."""
    rows: Dict[str, Row] = {}

    # Plain engine: every hook tuple empty.  Tier-1 keeps the paper
    # policies; the full matrix crosses placements x formations.
    for model, (spec_at, dataset, rate, requests) in MODELS.items():
        for gpus in (1, 2, 4):
            base = Row(spec_at(gpus), dataset, rate * gpus, requests)
            rows[f"{model}/{gpus}gpu"] = base._replace(tier1=model in TIER1_MODELS)
            for placement in PLACEMENTS:
                for formation in FORMATIONS:
                    if (placement, formation) == ("pinned", "paper"):
                        continue  # the row above
                    rows[f"{model}/{gpus}gpu/{placement}/{formation}"] = base._replace(
                        spec=_policies(
                            base.spec, placement=placement, formation=formation
                        )
                    )

    # Faults, deadlines, shedding, device loss.
    lstm2 = presets.lstm_batchmaker_spec(64, 2)
    rows["storm/deadlines"] = Row(
        lstm2.replace(sla=STORM_SLA.to_dict()), "sequence", 3000.0, 300,
        faults=dict(STORM, device_failures=[(10e-3, 1)]), tier1=True,
    )
    rows["storm/shedding"] = Row(
        lstm2.replace(sla=SHEDDING_SLA.to_dict()),
        "sequence", 12000.0, 400,
        faults=dict(STORM, device_failures=[(10e-3, 1)]), tier1=True,
    )
    rows["storm/total_loss"] = Row(
        lstm2, "sequence", 3000.0, 200,
        faults=dict(
            kernel_failure_rate=0.05, device_failures=[(10e-3, 0), (25e-3, 1)]
        ),
        tier1=True,
    )
    rows["storm/request_deadlines"] = Row(
        lstm2, "sequence", 9000.0, 300, deadline=8e-3, faults=dict(STORM),
    )

    # Memory: deferral + evict-and-restart, front-door shed, OOM at the
    # wall, residency dropped with a dying device.
    rows["memory/aware"] = Row(
        _memory_spec(), "seq2seq_dynamic", 300.0, 150, tier1=True
    )
    rows["memory/shed"] = Row(
        _memory_spec(admission_free_requests=20), "seq2seq_dynamic", 600.0, 150,
        tier1=True,
    )
    rows["memory/oblivious"] = Row(
        _memory_spec(memory_aware=False), "seq2seq_dynamic", 300.0, 150, tier1=True
    )
    rows["memory/aware+device_loss"] = Row(
        _memory_spec(), "seq2seq_dynamic", 300.0, 150,
        faults=dict(kernel_failure_rate=0.05, device_failures=[(0.1, 1)]),
        tier1=True,
    )

    # SLO: the lazy kick holds batches against predicted slack.
    lazy = _policies(presets.lstm_batchmaker_spec(32, 1), formation="lazy_kick")
    rows["lazy_kick/sla"] = Row(
        lazy.replace(sla=LAZY_SLA.to_dict()),
        "sequence", 5000.0, 400, tier1=True,
    )

    # Energy: DVFS governors, and the books reset with a dying device.
    for governor in ("race_to_idle", "headroom", "fixed"):
        rows[f"energy/{governor}"] = Row(
            _energy_spec(governor), "sequence", 2000.0, 300,
            tier1=governor != "fixed",
        )
    rows["energy/headroom+device_loss"] = Row(
        _energy_spec("headroom", gpus=2), "sequence", 3000.0, 300,
        faults=dict(STORM, device_failures=[(15e-3, 1)]), tier1=True,
    )

    # Trace attached: must hash equal to the untraced twin.
    for twin in ("storm/deadlines", "memory/aware", "energy/race_to_idle"):
        rows[f"{twin}+trace"] = _traced(rows[twin])

    # Cluster front door: SLA + memory admission, autoscaler, replica loss.
    rows["cluster/sla+autoscaler+loss"] = Row(
        presets.lstm_cluster_spec(
            2, "predicted_delay", max_batch=16, autoscaler=AUTOSCALER.to_dict()
        ).replace(sla={"default_deadline": 6e-3}),
        "sequence", 16000.0, 600, replica_failures=((8e-3, 0),), tier1=True,
    )
    rows["cluster/memory_admission+loss"] = Row(
        presets.seq2seq_dynamic_cluster_spec(
            2, capacity_requests=24, admission_free_requests=20
        ),
        "seq2seq_dynamic", 800.0, 150, replica_failures=((0.05, 1),), tier1=True,
    )
    rows["cluster/hetero_energy"] = Row(
        presets.lstm_hetero_cluster_spec(), "sequence", 4000.0, 300, tier1=True
    )
    rows["cluster/total_loss"] = Row(
        presets.lstm_cluster_spec(2, max_batch=64), "sequence", 3000.0, 200,
        replica_failures=((10e-3, 0), (25e-3, 1)), tier1=True,
    )
    rows["cluster/sla+autoscaler+loss+trace"] = _traced(
        rows["cluster/sla+autoscaler+loss"]
    )

    # Full matrix: every router under autoscaler + replica loss + faults.
    for router in sorted(ROUTERS):
        params = {"bucket_width": 32} if router == "class_affinity" else None
        rows[f"cluster/router/{router}"] = Row(
            presets.lstm_cluster_spec(
                3, router, max_batch=32, autoscaler=AUTOSCALER.to_dict(),
                router_params=params,
            ),
            "sequence", 9000.0, 400, deadline=50e-3, faults=dict(STORM),
            replica_failures=((8e-3, 1),),
        )
        rows[f"cluster/hetero/{router}"] = Row(
            presets.lstm_hetero_cluster_spec(router=router),
            "sequence", 4000.0, 200, replica_failures=((20e-3, 2),),
        )
    # Not most_free_memory at three replicas: with every device of two
    # replicas full and nothing in flight, each replica's defer-retry timer
    # keeps the shared loop non-empty, so neither ever sees "no pending
    # event" and triages — the run never drains (ROADMAP item 2).  The
    # two-replica tier-1 row covers that router.
    for router in ("least_outstanding", "round_robin"):
        rows[f"cluster/memory/{router}"] = Row(
            presets.seq2seq_dynamic_cluster_spec(
                3, router, capacity_requests=24, admission_free_requests=8
            ),
            "seq2seq_dynamic", 900.0, 150, replica_failures=((0.05, 1),),
        )

    rows.update(_pairwise())
    return rows


# -- the pairwise subsystem rows (ROADMAP item 10) ---------------------------

def _pairwise() -> Dict[str, Row]:
    """Every pair of opt-in subsystems on one Seq2Seq engine: each is
    pinned against "off" by its own suite, this pins them against each
    other."""
    features = ("faults", "memory", "energy", "sla", "cluster", "dynamic")
    rows = {}
    for i, first in enumerate(features):
        for second in features[i + 1:]:
            rows[f"pair/{first}+{second}"] = _combo({first, second})
    rows["pair/all"] = _combo(set(features))
    return rows


def _combo(on: set) -> Row:
    dynamic = "dynamic" in on
    spec = (
        presets.seq2seq_dynamic_spec(
            64, 32, 2,
            capacity_requests=24 if "memory" in on else None,
            memory_aware="memory" in on,
        )
        if dynamic
        else presets.seq2seq_batchmaker_spec(64, 32, 2)
    )
    if "memory" in on and not dynamic:
        spec = _policies(spec, formation="memory_aware").replace(
            memory=PAIR_MEMORY.to_dict()
        )
    if "energy" in on:
        spec = spec.replace(energy=PAIR_ENERGY.to_dict())
    if "sla" in on:
        spec = spec.replace(sla=PAIR_SLA.to_dict())
    row = Row(
        spec,
        "seq2seq_dynamic" if dynamic else "seq2seq",
        400.0 if dynamic else 1500.0,
        120,
    )
    if "faults" in on:
        row = row._replace(faults=dict(STORM, device_failures=[(40e-3, 1)]))
    if "cluster" in on:
        row = row._replace(
            spec=ClusterSpec(
                replica=spec, num_replicas=2, router="least_outstanding",
                autoscaler=AUTOSCALER.to_dict(),
            ),
            rate=row.rate * 2,
            replica_failures=((30e-3, 0),),
        )
    return row


# -- running and hashing ----------------------------------------------------

def run(row: Row, seed: int):
    """Build the row's server (or cluster) at ``seed``, serve its traffic,
    drain.  The seed drives arrivals, payloads, the fault plan and the
    cluster's tie-breaks alike."""
    runtime = {}
    if row.faults is not None:
        runtime["fault_plan"] = FaultPlan(seed=seed, **row.faults)
    if isinstance(row.spec, ClusterSpec):
        server = build_cluster(
            row.spec.replace(seed=seed),
            replica_failures=row.replica_failures,
            **runtime,
        )
    else:
        server = build_server(row.spec, **runtime)
    if row.traced:
        server.attach_trace(TraceRecorder(server.loop))
    submitted = run_chaos(
        server,
        rate=row.rate,
        num_requests=row.requests,
        arrival_seed=seed,
        deadline=row.deadline,
        dataset=DATASETS[row.dataset](seed + 1),
    )
    hung = [r.request_id for r in submitted if not r.terminal]
    if hung or server.loop.pending():
        raise AssertionError(f"drain left requests {hung} live")
    return server


def digest(row: Row, seed: int) -> str:
    fingerprint = outcome_fingerprint(run(row, seed))
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def key(name: str, seed: int) -> str:
    return f"{name}@{seed}"


def compute(names: Iterable[str]) -> Dict[str, str]:
    rows = matrix()
    return {
        key(name, seed): digest(rows[name], seed)
        for name in names
        for seed in SEEDS
    }


def stored() -> Dict[str, str]:
    return json.loads(PATH.read_text())


# -- the stored form of every config value ----------------------------------

SPECS_PATH = Path(__file__).with_name("specs.json")


def spec_blocks() -> Dict[str, object]:
    """Every config value the presets and this matrix build, by name.
    ``specs.json`` holds their ``to_dict()`` as written before the config
    classes shared one serialiser, and is never rewritten: it pins the
    stored form every saved spec and journal already carries."""
    blocks: Dict[str, object] = {
        f"fig/{name}": spec for name, spec in presets.all_fig_specs().items()
    }
    blocks.update(
        (f"cluster/{name}", spec) for name, spec in presets.all_cluster_specs().items()
    )
    blocks["serve/lstm"] = presets.lstm_serve_spec()
    blocks.update({
        "sla/storm": STORM_SLA,
        "sla/shedding": SHEDDING_SLA,
        "sla/lazy_kick": LAZY_SLA,
        "sla/pair": PAIR_SLA,
        "autoscaler": AUTOSCALER,
        "memory/pair": PAIR_MEMORY,
        "energy/pair": PAIR_ENERGY,
    })
    return blocks
