"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition: repeating a simulated
run inside one process slows it by 30-50% as dead servers pile up in the
oldest GC generation.  The last line of standard output is one JSON
object with what the repetition measured and whether its outputs passed
the checks.

The timed region of a simulated workload is the program's own measurement
loop — ``LoadGenerator.run`` (plan, submit loop, drain, latency summary)
plus the percentiles.  Everything before it is set-up.  Both are reported
in reference seconds: the process samples its own speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from typing import Any, Dict, List

import spans
import speed
import workloads

sys.path.insert(0, workloads.SRC)


def count_fired() -> List[int]:
    """Make ``EventLoop.run`` note how many events it fired (``drain``
    drops the count).  Installed on traced and untraced runs alike, once
    per run, so the count can be compared between them."""
    from repro.sim.events import EventLoop

    fired: List[int] = []
    run = EventLoop.run

    def counted(self, *args, **kwargs):
        executed = run(self, *args, **kwargs)
        fired.append(executed)
        return executed

    EventLoop.run = counted
    return fired


def engine_counts(server) -> Dict[str, int]:
    """Cells executed and tasks submitted, summed over the engines."""
    stats = [engine.stats() for engine in spans.engines(server)]
    return {
        "cells": sum(s.nodes_processed for s in stats),
        "tasks": sum(s.tasks_submitted for s in stats),
    }


def check_outputs(server, submitted: int, cells: int) -> List[str]:
    """Conservation, cell count against the payloads, finish after arrival."""
    problems = []
    finished, timed_out, rejected = server.finished, server.timed_out, server.rejected
    terminal = len(finished) + len(timed_out) + len(rejected)
    if terminal != submitted:
        problems.append(f"conservation: {submitted} submitted, {terminal} terminal")
    ids = {r.request_id for r in finished + timed_out + rejected}
    if len(ids) != terminal:
        problems.append(f"{terminal - len(ids)} requests terminal twice")
    expected = sum(workloads.payload_cells(r.payload) for r in finished)
    if not (timed_out or rejected) and cells != expected:
        problems.append(f"cells: payloads need {expected}, engines ran {cells}")
    early = sum(1 for r in finished if r.finish_time < r.arrival_time)
    if early:
        problems.append(f"{early} requests finished before they arrived")
    return problems


def fingerprint(server) -> str:
    """Hash of every request's id, terminal state and exact finish time."""
    digest = hashlib.sha256()
    for r in sorted(server.terminal_requests(), key=lambda r: r.request_id):
        digest.update(
            f"{r.request_id}:{r.state.value}:{float(r.terminal_time).hex()}\n".encode()
        )
    return digest.hexdigest()


def simulate(
    name: str, cfg: Dict[str, Any], seed: int, ledger, spawned_at: float
) -> Dict[str, Any]:
    """Build the server, run the timed region, check what came out.
    ``spawned_at`` is the parent's ``time.time()`` just before it started
    this process: set-up runs from there to the timed region.  The speed
    sampler starts before anything of the program is imported."""
    sampler = speed.Sampler()
    sampler.start()
    born = time.monotonic() - (time.time() - spawned_at)
    fired = count_fired()
    if ledger is not None:
        ledger.install()
    server = workloads.build(name, cfg)
    if ledger is not None:
        ledger.install_for_server(server)
    generator = workloads.generator(cfg, seed)
    dataset = workloads.dataset(name, cfg, seed)
    cpu0, t0 = time.thread_time(), time.monotonic()
    result = generator.run(server, dataset)
    p50_ms, p99_ms = result.stats.p_ms(50), result.stats.p_ms(99)
    t1 = time.monotonic()
    cpu_s = time.thread_time() - cpu0
    sampler.stop()
    wall_s = t1 - t0
    host_s, host_speed = speed.reference_seconds(cpu_s, sampler.samples, t0, t1)
    setup_s, setup_speed = speed.reference_seconds(t0 - born, sampler.samples, born, t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Taken here: the checks below call into wrapped code (ServerStats
    # builds a LatencyStats) and must not be charged to the timed region.
    layers = ledger.report() if ledger is not None else None

    submitted = cfg["requests"]
    counts = engine_counts(server)
    problems = check_outputs(server, submitted, counts["cells"])
    failed = submitted - len(server.finished)
    return {
        "setup_s": setup_s,
        "setup_wall_s": t0 - born,
        "setup_speed": setup_speed,
        "host_s": host_s,
        "host_speed": host_speed,
        "wall_s": wall_s,
        "timed_requests": len(server.finished),
        "timed_cells": counts["cells"],
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "submitted": submitted,
        "failed": failed,
        "problems": problems,
        "ledger": layers,
        # Exact for a given seed: must repeat across repetitions, traced or not.
        "exact": {
            "fingerprint": fingerprint(server),
            "sim_p50_ms": p50_ms,
            "sim_p99_ms": p99_ms,
            "sim_throughput_rps": result.summary.throughput,
            "cells": counts["cells"],
            "scheduler.tasks": counts["tasks"],
            "events.fired": sum(fired),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    cfg = workloads.config(args.workload, smoke=bool(args.smoke))
    if cfg["kind"] == "live":
        import live

        out = live.run(cfg, args.seed, traced=bool(args.traced))
    else:
        ledger = spans.Ledger() if args.traced else None
        out = simulate(args.workload, cfg, args.seed, ledger, args.spawned_at)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
