"""The four workloads: what runs, at which rate and size (``BENCHMARK.json``
and the README say why).

Plain data plus lazy builders — importing this module imports nothing from
``repro``, so the parent process (``run.py``) stays light and only the
per-repetition child pays the import.  Names are fixed: later issues cite
them.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple

# The checkout the benchmark sits in, and the program it measures.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "lstm_chain": {
        "kind": "sim",
        "rate": 5000.0,
        "requests": 8000,
        "arrivals": "poisson",
    },
    "tree_lstm": {
        "kind": "sim",
        "rate": 1500.0,
        "requests": 4000,
        "arrivals": "poisson",
    },
    "cluster_short": {
        "kind": "sim",
        "rate": 100000.0,
        "requests": 20000,
        "arrivals": "bursty",
        # Bursts of twice the rate, ~80 requests long.  The arrival class's
        # defaults (4x, ~4000 requests) put 4 burst cycles into the run, and
        # the work then depends on the seed: tasks and host time varied 70%.
        "arrival_params": {"burst_factor": 2.0, "mean_dwell": 0.002},
        "replicas": 8,
        "router": "shortest_queue",
        "length": 4,
    },
    "live_http": {
        "kind": "live",
        "length": 8,
        "connections": 2,
        "closed_requests": 4000,
        # Outstanding POSTs per connection in the closed loop.  With 1 the
        # phase times the wake-up of an idle process on either side, not the
        # server: its req/s spread 19% between identical repetitions, with
        # 16 (the server is never idle) 5%.
        "window": 16,
        "rate": 1000.0,
        "requests": 1200,
        "arrivals": "poisson",
    },
}

# Share of the earliest arrivals left out of the simulated latency summary
# (they see an empty system) — LoadGenerator's own default, stated here
# because the sim_* metrics are defined "after the 10% warm-up prefix".
WARMUP_FRACTION = 0.1

_SIZE_KEYS = ("requests", "closed_requests")


def config(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The workload's settings; ``smoke`` runs a tenth of every count."""
    cfg = dict(WORKLOADS[name])
    if smoke:
        for key in _SIZE_KEYS:
            if key in cfg:
                cfg[key] = max(50, cfg[key] // 10)
    return cfg


def seeds(seed: int) -> Tuple[int, int]:
    """(arrival seed, dataset seed), both derived from ``--seed``."""
    return seed, seed + 1_000_003


def generator(cfg: Dict[str, Any], seed: int):
    from repro.workload import LoadGenerator

    return LoadGenerator(
        rate=cfg["rate"],
        num_requests=cfg["requests"],
        seed=seeds(seed)[0],
        warmup_fraction=WARMUP_FRACTION,
        arrivals=cfg["arrivals"],
        arrival_params=cfg.get("arrival_params"),
    )


def dataset(name: str, cfg: Dict[str, Any], seed: int):
    from repro.workload import FixedLengthDataset, SequenceDataset, TreeDataset

    if name == "lstm_chain":
        return SequenceDataset(seed=seeds(seed)[1])
    if name == "tree_lstm":
        return TreeDataset(seed=seeds(seed)[1])
    return FixedLengthDataset(cfg["length"])


def build(name: str, cfg: Dict[str, Any]):
    """The simulated server, from its registry spec.  ``live_http`` builds
    the bare LSTM engine its server process runs — the simulated twin."""
    from repro.registry import build_server, presets

    if name == "tree_lstm":
        return build_server(presets.tree_batchmaker_spec())
    if name == "cluster_short":
        from repro.cluster.cluster import build_cluster

        return build_cluster(
            presets.lstm_cluster_spec(
                num_replicas=cfg["replicas"], router=cfg["router"]
            )
        )
    return build_server(presets.lstm_batchmaker_spec())


def payload_cells(payload: Any) -> int:
    """Cells a payload must execute, derived without the engine: a chain of
    length L runs L cells, a binary tree with n leaves runs 2n - 1."""
    if isinstance(payload, int):
        return payload
    leaves, stack = 0, [payload.root]
    while stack:
        node = stack.pop()
        if node.left is None:
            leaves += 1
        else:
            stack.extend((node.left, node.right))
    return 2 * leaves - 1
