"""Ablations of BatchMaker's design choices (DESIGN.md §5, §10).

Not figures from the paper, but quantifications of the mechanisms the paper
argues for.  Every server here is built through :mod:`repro.registry`, and
every mechanism ablation is a *policy swap* (see :mod:`repro.policies`) —
the engine code has no ablation forks:

* **MaxTasksToSubmit** — §7.3 bounds new-request queuing by
  MaxTasksToSubmit x per-step time; larger values trade join latency for
  fewer scheduling rounds.
* **Subgraph pinning** — §4.3 pins subgraphs to workers for locality; the
  ablation swaps in the ``unpinned`` placement policy (dependencies then
  advance on completion, and cross-GPU copies are charged).
* **Per-task overhead** — §7.3 measures ~65 us of scheduling+gather per
  task; sweeping it shows how close BatchMaker gets to ideal throughput.
* **Priority** — decoder-priority (``paper`` queue policy + configured
  priorities) vs the ``flat`` queue policy for Seq2Seq.
* **Policy breakdown** — a Figure-9-style table knocking out one policy
  at a time (priority off, locality off, fixed placement) on Seq2Seq
  near saturation.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import common
from repro.gpu.costmodel import CostModel, v100_lstm_step_table
from repro.metrics.summary import format_table
from repro.registry import build_server, presets
from repro.workload import Seq2SeqDataset, SequenceDataset


def max_tasks_sweep(quick: bool = False) -> List[Dict]:
    """p99 queuing time vs MaxTasksToSubmit at moderate LSTM load."""
    rate = 5000.0
    num = 3000 if quick else 12000
    rows = []
    for limit in (1, 2, 5, 10, 20):
        spec = presets.lstm_batchmaker_spec()
        spec = spec.replace(
            config={**spec.config, "max_tasks_to_submit": limit},
            name=f"BM(mts={limit})",
        )
        summary = common.run_point(
            build_server(spec), lambda: SequenceDataset(seed=1), rate, num
        )
        rows.append(
            {
                "max_tasks_to_submit": limit,
                "p99_queuing_ms": 1e3 * summary.stats.p(99, "queuing"),
                "p90_latency_ms": summary.p90_ms,
                "throughput": summary.throughput,
            }
        )
    return rows


def pinning_ablation(quick: bool = False) -> List[Dict]:
    """Pinned vs unpinned placement policy on 4 GPUs (LSTM)."""
    num = 3000 if quick else 12000
    rows = []
    for rate in (10000.0,) if quick else (10000.0, 30000.0, 50000.0):
        for pinning in (True, False):
            spec = presets.lstm_batchmaker_spec(
                num_gpus=4,
                policies=None if pinning else {"placement": "unpinned"},
            )
            spec = spec.replace(name=f"BM({'pinned' if pinning else 'unpinned'})")
            summary = common.run_point(
                build_server(spec), lambda: SequenceDataset(seed=1), rate, num
            )
            rows.append(
                {
                    "rate": rate,
                    "pinning": pinning,
                    "p90_latency_ms": summary.p90_ms,
                    "throughput": summary.throughput,
                }
            )
    return rows


def overhead_sweep(quick: bool = False) -> List[Dict]:
    """Fixed-length throughput vs per-task scheduling/gather overhead."""
    from repro.workload import FixedLengthDataset

    rate = 26000.0
    num = 4000 if quick else 20000
    rows = []
    for overhead_us in (0, 35, 65, 130, 260):
        # Sweep the *total* per-task overhead (scheduling + gather); the
        # cost model is a runtime-only object, passed as a build override.
        cost = CostModel(
            per_task_overhead=overhead_us * 1e-6, gather_overhead=0.0
        )
        cost.register("lstm", v100_lstm_step_table())
        spec = presets.lstm_batchmaker_spec().replace(name=f"BM(ovh={overhead_us}us)")
        server = build_server(spec, cost_model=cost)
        summary = common.run_point(
            server, lambda: FixedLengthDataset(24), rate, num
        )
        rows.append(
            {
                "overhead_us": overhead_us,
                "throughput": summary.throughput,
                "fraction_of_analytic_max": summary.throughput
                / (512 / (24 * 784e-6)),
            }
        )
    return rows


def priority_ablation(quick: bool = False) -> List[Dict]:
    """Decoder-priority vs the flat queue policy for Seq2Seq (2 GPUs).

    Run near saturation, where the choice of which cell type to execute
    first actually binds.  The flat policy ignores configured priorities
    in the tie-break, which is exactly equivalent to setting every
    priority to zero — so this is a pure policy swap."""
    rate = 7500.0
    num = 3000 if quick else 10000
    rows = []
    for decoder_priority, priority_policy in ((1, None), (0, "flat")):
        policies = None if priority_policy is None else {"priority": priority_policy}
        spec = presets.seq2seq_batchmaker_spec(policies=policies)
        spec = spec.replace(name=f"BM(dec-prio={decoder_priority})")
        summary = common.run_point(
            build_server(spec), lambda: Seq2SeqDataset(seed=5), rate, num
        )
        rows.append(
            {
                "decoder_priority": decoder_priority,
                "p90_latency_ms": summary.p90_ms,
                "throughput": summary.throughput,
            }
        )
    return rows


# One knockout per row: the policy-name overrides applied to the default
# Seq2Seq BatchMaker spec (None = the paper's full Algorithm 1).
BREAKDOWN_VARIANTS: List = [
    ("all on (paper)", None),
    ("priority off", {"priority": "flat"}),
    ("locality off", {"placement": "unpinned"}),
    ("fixed placement", {"placement": "fixed"}),
]


def policy_breakdown(quick: bool = False) -> List[Dict]:
    """Figure-9-style mechanism breakdown via policy swaps (Seq2Seq, 2 GPUs).

    Each row disables one scheduling mechanism by swapping a single
    policy on the same spec — no server or scheduler code forks."""
    rate = 7500.0
    num = 2500 if quick else 10000
    rows = []
    for label, overrides in BREAKDOWN_VARIANTS:
        spec = presets.seq2seq_batchmaker_spec(policies=overrides)
        spec = spec.replace(name=f"BM({label})")
        server = build_server(spec)
        summary = common.run_point(
            server, lambda: Seq2SeqDataset(seed=5), rate, num
        )
        rows.append(
            {
                "variant": label,
                "policies": server.policies.names(),
                "throughput": summary.throughput,
                "p50_latency_ms": summary.p50_ms,
                "p90_latency_ms": summary.p90_ms,
                "p99_latency_ms": summary.p99_ms,
                "p99_queuing_ms": 1e3 * summary.stats.p(99, "queuing"),
            }
        )
    return rows


def run(quick: bool = False) -> Dict[str, List[Dict]]:
    return {
        "max_tasks_to_submit": max_tasks_sweep(quick),
        "pinning": pinning_ablation(quick),
        "overhead": overhead_sweep(quick),
        "priority": priority_ablation(quick),
        "policy_breakdown": policy_breakdown(quick),
    }


def main(quick: bool = False, jobs: int = 1) -> Dict:
    del jobs  # ablation points vary config, not rate; kept serial
    results = run(quick=quick)
    print("\n== Ablation: MaxTasksToSubmit (LSTM @5K req/s) ==")
    print(
        format_table(
            ["limit", "p99 queuing ms", "p90 latency ms", "throughput"],
            [
                [
                    str(r["max_tasks_to_submit"]),
                    f"{r['p99_queuing_ms']:.2f}",
                    f"{r['p90_latency_ms']:.2f}",
                    f"{r['throughput']:.0f}",
                ]
                for r in results["max_tasks_to_submit"]
            ],
        )
    )
    print("\n== Ablation: subgraph pinning (LSTM, 4 GPUs) ==")
    print(
        format_table(
            ["rate", "pinning", "p90 latency ms", "throughput"],
            [
                [
                    f"{r['rate']:.0f}",
                    "on" if r["pinning"] else "off",
                    f"{r['p90_latency_ms']:.2f}",
                    f"{r['throughput']:.0f}",
                ]
                for r in results["pinning"]
            ],
        )
    )
    print("\n== Ablation: per-task overhead (fixed-length LSTM @26K req/s) ==")
    print(
        format_table(
            ["overhead us", "throughput", "fraction of analytic max"],
            [
                [
                    str(r["overhead_us"]),
                    f"{r['throughput']:.0f}",
                    f"{r['fraction_of_analytic_max']:.0%}",
                ]
                for r in results["overhead"]
            ],
        )
    )
    print("\n== Ablation: decoder priority (Seq2Seq @7.5K req/s, 2 GPUs) ==")
    print(
        format_table(
            ["decoder priority", "p90 latency ms", "throughput"],
            [
                [
                    str(r["decoder_priority"]),
                    f"{r['p90_latency_ms']:.2f}",
                    f"{r['throughput']:.0f}",
                ]
                for r in results["priority"]
            ],
        )
    )
    print("\n== Policy breakdown (Seq2Seq @7.5K req/s, 2 GPUs) ==")
    print(
        format_table(
            [
                "variant",
                "throughput",
                "p50 ms",
                "p90 ms",
                "p99 ms",
                "p99 queuing ms",
            ],
            [
                [
                    r["variant"],
                    f"{r['throughput']:.0f}",
                    f"{r['p50_latency_ms']:.2f}",
                    f"{r['p90_latency_ms']:.2f}",
                    f"{r['p99_latency_ms']:.2f}",
                    f"{r['p99_queuing_ms']:.2f}",
                ]
                for r in results["policy_breakdown"]
            ],
        )
    )
    return results


if __name__ == "__main__":
    import sys

    main(quick="--quick" in sys.argv)
