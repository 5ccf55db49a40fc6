"""Sim-vs-live parity harness.

The contract :mod:`repro.serve` must uphold: running the *same engine*
over the *same seeded workload* on the real-time clock instead of the
virtual one changes **when** things happen on the wall clock, but not
**what** happens.  Concretely, for a seeded plan
(:meth:`repro.workload.LoadGenerator.plan`):

- **Outcome parity (exact)** — every plan index reaches the same
  terminal outcome (SUCCEEDED / FAILED-timeout / FAILED-rejected) in
  both worlds.  The engine's admission and SLA decisions depend only on
  engine time, which the bridge reproduces, so this holds exactly for
  deterministic policies.
- **Latency parity (banded)** — live p50/p99 land within
  ``max(abs_tol, rel_tol * sim)`` of the simulator's prediction.  Live
  latencies pick up asyncio timer jitter (each hop fires up to ~1 ms
  late under load), so the bands are tolerance-, not bit-, exact; the
  defaults here were calibrated on the CI-sized workload and are
  widened further by ``relaxed=True`` for shared CI runners.

``python -m repro.serve.parity`` runs both worlds and exits non-zero on
any violation — the same check ``tests/test_serve_parity.py`` gates.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.serve.loadgen import percentile_ms
from repro.serve.store import ABORTED, FAILED, SUCCEEDED

# Calibrated on the default workload (rate=200, n=300, lstm dataset):
# sim predicts p50≈1.7ms / p99≈7.4ms and live lands at p50≈5ms /
# p99≈23-27ms — each request's per-cell event chain accumulates ~0.1-1ms
# of asyncio timer lateness per hop, so the absolute band dominates at
# these small latencies and the relative band takes over at large ones.
DEFAULT_ABS_TOL_MS = 35.0
DEFAULT_REL_TOL = 0.50
RELAXED_ABS_TOL_MS = 100.0
RELAXED_REL_TOL = 2.0


class WorldResult:
    """Per-index outcomes + latencies from one world (sim or live)."""

    def __init__(
        self,
        world: str,
        outcomes: Dict[int, str],
        latencies: Dict[int, float],
        extras: Optional[Dict[str, Any]] = None,
    ):
        self.world = world
        self.outcomes = outcomes
        self.latencies = latencies
        self.extras = dict(extras or {})


class ParityResult:
    """The comparison verdict plus everything needed to debug a miss."""

    def __init__(
        self,
        sim: WorldResult,
        live: WorldResult,
        mismatches: List[str],
        bands: Dict[str, float],
    ):
        self.sim = sim
        self.live = live
        self.mismatches = mismatches
        self.bands = bands

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        sim, live = self.sim.latencies, self.live.latencies
        lines = [
            f"sim : n={len(self.sim.outcomes)} "
            f"p50={percentile_ms(sim, 50):.2f}ms "
            f"p99={percentile_ms(sim, 99):.2f}ms",
            f"live: n={len(self.live.outcomes)} "
            f"p50={percentile_ms(live, 50):.2f}ms "
            f"p99={percentile_ms(live, 99):.2f}ms",
            f"bands: p50 ±{self.bands['p50_band_ms']:.2f}ms, "
            f"p99 ±{self.bands['p99_band_ms']:.2f}ms",
        ]
        if self.mismatches:
            lines.append("MISMATCHES:")
            lines.extend(f"  - {m}" for m in self.mismatches)
        else:
            lines.append("parity OK")
        return "\n".join(lines)


def run_sim(
    rate: float,
    num_requests: int,
    seed: int = 0,
    dataset: str = "lstm",
    dataset_seed: int = 1,
    deadline: Optional[float] = None,
    num_replicas: int = 1,
) -> WorldResult:
    """Run the plan on the virtual clock; outcomes keyed by plan index.

    Request ids are assigned in submission order, so the engine's
    ``request_id`` *is* the plan index — the same identity the live
    loadgen carries as ``tag``.
    """
    from repro.registry.presets import lstm_serve_spec
    from repro.serve.frontend import build_engine
    from repro.serve.loadgen import DATASETS
    from repro.workload.loadgen import LoadGenerator

    server = build_engine(lstm_serve_spec(num_replicas=num_replicas))
    plan = LoadGenerator(rate=rate, num_requests=num_requests, seed=seed).plan(
        DATASETS[dataset](dataset_seed)
    )
    for when, payload in plan:
        server.submit(payload, arrival_time=when, deadline=deadline)
    server.drain()

    outcomes: Dict[int, str] = {}
    latencies: Dict[int, float] = {}
    for request in server.finished:
        outcomes[request.request_id] = SUCCEEDED
        latencies[request.request_id] = request.finish_time - request.arrival_time
    for request in server.timed_out + server.rejected:
        outcomes[request.request_id] = FAILED
    return WorldResult("sim", outcomes, latencies)


def run_live(
    rate: float,
    num_requests: int,
    seed: int = 0,
    dataset: str = "lstm",
    dataset_seed: int = 1,
    deadline: Optional[float] = None,
    num_replicas: int = 1,
    concurrency: int = 16,
    drain_timeout: float = 60.0,
) -> WorldResult:
    """Run the same plan through a real server over localhost sockets."""
    import asyncio

    from repro.registry.presets import lstm_serve_spec
    from repro.serve.frontend import start_in_thread
    from repro.serve.loadgen import run_loadgen

    spec = lstm_serve_spec(port=0, num_replicas=num_replicas)
    handle = start_in_thread(spec)
    try:
        report = asyncio.run(
            run_loadgen(
                spec.host,
                handle.port,
                rate=rate,
                num_requests=num_requests,
                seed=seed,
                dataset=dataset,
                dataset_seed=dataset_seed,
                concurrency=concurrency,
                deadline=deadline,
                drain_timeout=drain_timeout,
            )
        )
    finally:
        handle.stop()
    extras = {
        "submit_errors": list(report.submit_errors),
        "lost": report.lost,
        "wall_seconds": report.wall_seconds,
    }
    return WorldResult("live", dict(report.outcomes), dict(report.latencies), extras)


def compare(
    sim: WorldResult,
    live: WorldResult,
    abs_tol_ms: float = DEFAULT_ABS_TOL_MS,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ParityResult:
    """Exact per-index outcome parity + banded p50/p99 latency parity."""
    mismatches: List[str] = []
    if live.extras.get("submit_errors"):
        mismatches.append(
            f"live submit errors: {live.extras['submit_errors'][:3]}"
        )
    if live.extras.get("lost"):
        mismatches.append(f"live lost {live.extras['lost']} requests")

    sim_keys, live_keys = set(sim.outcomes), set(live.outcomes)
    for index in sorted(sim_keys - live_keys):
        mismatches.append(f"index {index}: sim={sim.outcomes[index]}, live missing")
    for index in sorted(live_keys - sim_keys):
        mismatches.append(f"index {index}: live={live.outcomes[index]}, sim missing")
    disagreements = [
        index
        for index in sorted(sim_keys & live_keys)
        if sim.outcomes[index] != live.outcomes[index]
        and live.outcomes[index] != ABORTED
    ]
    for index in disagreements[:10]:
        mismatches.append(
            f"index {index}: sim={sim.outcomes[index]} live={live.outcomes[index]}"
        )
    if len(disagreements) > 10:
        mismatches.append(f"... and {len(disagreements) - 10} more outcome diffs")
    aborted = [i for i in live_keys if live.outcomes[i] == ABORTED]
    if aborted:
        mismatches.append(f"{len(aborted)} live requests ABORTED mid-run")

    bands: Dict[str, float] = {}
    for p in (50, 99):
        sim_p, live_p = percentile_ms(sim.latencies, p), percentile_ms(live.latencies, p)
        band = max(abs_tol_ms, rel_tol * (sim_p or 0.0))
        bands[f"p{p}_band_ms"] = band
        if sim_p is None or live_p is None:
            mismatches.append(f"p{p}: missing latencies (sim={sim_p}, live={live_p})")
        elif abs(live_p - sim_p) > band:
            mismatches.append(
                f"p{p}: live {live_p:.2f}ms vs sim {sim_p:.2f}ms "
                f"exceeds band ±{band:.2f}ms"
            )
    return ParityResult(sim, live, mismatches, bands)


def run_parity(
    rate: float = 200.0,
    num_requests: int = 300,
    seed: int = 0,
    dataset: str = "lstm",
    dataset_seed: int = 1,
    deadline: Optional[float] = None,
    num_replicas: int = 1,
    relaxed: bool = False,
) -> ParityResult:
    """Run both worlds on one plan and compare."""
    abs_tol = RELAXED_ABS_TOL_MS if relaxed else DEFAULT_ABS_TOL_MS
    rel_tol = RELAXED_REL_TOL if relaxed else DEFAULT_REL_TOL
    sim = run_sim(
        rate, num_requests, seed, dataset, dataset_seed, deadline, num_replicas
    )
    live = run_live(
        rate, num_requests, seed, dataset, dataset_seed, deadline, num_replicas
    )
    return compare(sim, live, abs_tol_ms=abs_tol, rel_tol=rel_tol)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    from repro.serve.loadgen import DATASETS

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.parity",
        description="Same seed, two worlds: virtual-clock simulation vs a "
        "live localhost server. Exits non-zero if outcomes diverge or "
        "live p50/p99 leave the tolerance bands.",
    )
    parser.add_argument("--rate", type=float, default=200.0)
    parser.add_argument("--num-requests", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="lstm", choices=sorted(DATASETS))
    parser.add_argument("--dataset-seed", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--num-replicas", type=int, default=1)
    parser.add_argument(
        "--relaxed",
        action="store_true",
        help="widen tolerance bands for noisy shared machines (CI)",
    )
    args = parser.parse_args(argv)
    result = run_parity(
        rate=args.rate,
        num_requests=args.num_requests,
        seed=args.seed,
        dataset=args.dataset,
        dataset_seed=args.dataset_seed,
        deadline=args.deadline,
        num_replicas=args.num_replicas,
        relaxed=args.relaxed,
    )
    print(result.describe())
    return 0 if result.ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
