"""End-to-end benchmark: whole-run throughput, latency and a per-layer
share ledger over four workloads.

``python benchmarks/e2e/run.py [--seed S] [--workload W] [--seconds T]
[--trace 0|1] [--smoke] [--out FILE]``

One schedule whatever the flags: the chosen workloads (all four, or the one
``--workload`` names) are repeated untraced, round-robin so machine drift
spreads evenly, one fresh process per repetition (``rep.py``), until
``--seconds`` per workload are used up and never fewer than five times;
then, with ``--trace 1`` (the default), one traced repetition each.  Every
end-to-end metric is the median over the untraced repetitions, printed by
name with its unit, quartiles and sample count; the per-layer metrics come
from the traced one.  ``--out`` writes the full result — the input of
``compare.py``.  ``--smoke`` runs a tenth of the size once: it checks
outputs and schema and is never used for numbers.

With ``--workload`` the last line of standard output is the result as one
JSON object, the form ``BENCHMARK.json`` declares: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.

Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT

# A repetition is a few seconds; this only bounds a hung one.
REP_TIMEOUT_S = 150
MIN_REPS = 5

# End-to-end metrics of the full result that BENCHMARK.json cannot declare:
# its list holds for every workload and a metric may never be 0.
# name -> (unit, better, bound); compare.py judges them like the declared
# ones, a bound of 0 absolutely.
FAILED_SHARE = ("ratio", "lower", 0.0)
LIVE_END_TO_END = {
    "live_submit_p50_ms": ("ms", "lower", 0.25, "submit_p50_ms"),
    "live_latency_p50_ms": ("ms", "lower", 0.10, "latency_p50_ms"),
}

# Layers a workload must not enter: a traced run reports exactly 0 calls.
ABSENT_LAYERS = {
    "lstm_chain": ("cluster.", "serve."),
    "tree_lstm": ("cluster.", "serve."),
    "cluster_short": ("serve.",),
    "live_http": ("cluster.", "workload.", "events.", "metrics."),
}
MIN_ACCOUNTED_SHARE = 0.95  # simulated workloads
RAW_KEYS = ("wall_s", "cpu_s", "host_s", "host_speed", "setup_wall_s", "setup_s", "setup_speed")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declaration() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_rep(workload: str, seed: int, traced: bool, smoke: bool) -> Dict[str, Any]:
    """One repetition in a fresh process (its own group, so a hung one
    takes its server down with it)."""
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", str(int(traced)),
        "--smoke", str(int(smoke)),
        "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a repetition ran past {REP_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload}: a repetition exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# -- from repetitions to metrics ---------------------------------------------


def end_to_end_values(kind: str, rep: Dict[str, Any]) -> Dict[str, float]:
    """One repetition's end-to-end metrics.  Host time and simulated time
    are never mixed: ``host_*`` and ``setup_s`` are what this program took,
    in reference seconds (``speed.py``; the timed region of a simulated
    run, the server's share of phase A of the live one), ``sim_*`` what the
    modelled device would take."""
    exact = rep["exact"]
    values = {
        "host_req_per_s": rep["timed_requests"] / rep["host_s"],
        "host_cells_per_s": rep["timed_cells"] / rep["host_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "setup_s": rep["setup_s"],
        "sim_p50_ms": exact["sim_p50_ms"],
        "sim_p99_ms": exact["sim_p99_ms"],
        "sim_throughput_rps": exact["sim_throughput_rps"],
        "failed_share": rep["failed"] / rep["submitted"],
    }
    if kind == "live":
        values["live_req_per_s"] = rep["timed_requests"] / rep["wall_s"]
        for name, (_, _, _, key) in LIVE_END_TO_END.items():
            values[name] = rep["live"][key]
    return values


def summarise(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count over the repetitions."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end(kind: str, reps: List[Dict[str, Any]], declared: List[Dict[str, Any]]):
    """name -> unit, direction, bound, median, quartiles, sample count."""
    per_rep = [end_to_end_values(kind, rep) for rep in reps]
    specs = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared}
    specs["failed_share"] = FAILED_SHARE
    if kind == "live":
        specs["live_req_per_s"] = specs["host_req_per_s"]
        specs.update({name: spec[:3] for name, spec in LIVE_END_TO_END.items()})
    return {
        name: {"unit": unit, "better": better, "bound": bound,
               **summarise([values[name] for values in per_rep])}
        for name, (unit, better, bound) in specs.items()
    }


def layer_values(
    kind: str, untraced: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, float]:
    """Per-layer metrics from one traced repetition; values that tracing
    would distort (live latencies, CPU time) come from the untraced ones."""
    ledger = traced["ledger"]
    self_s, calls = ledger["self_s"], ledger["calls"]
    # The timed region: wall seconds of a simulated run; for the live server,
    # which mostly waits on sockets, the CPU seconds it used over both phases.
    region_s = traced["cpu_s"] if kind == "live" else traced["wall_s"]
    out: Dict[str, float] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / region_s
        out[f"{layer}.calls"] = calls[layer]

    def group(*prefixes: str) -> float:
        return sum(s for layer, s in self_s.items() if layer.startswith(prefixes))

    def per(seconds: float, count: float) -> float:
        """Reference microseconds apiece, at the speed the traced run saw."""
        return 1e6 * seconds * traced["host_speed"] / count if count else 0.0

    if kind == "live":
        live = traced["live"]
        cells, tasks, fired, posts = live["cells"], live["tasks"], live["events_fired"], live["posts"]
    else:
        exact = traced["exact"]
        cells, tasks, fired, posts = exact["cells"], exact["scheduler.tasks"], exact["events.fired"], 0

    def live_median(key: str) -> float:
        return statistics.median(r["live"][key] for r in untraced) if kind == "live" else 0.0

    out.update({
        "cells": cells,
        "scheduler.tasks": tasks,
        "scheduler.mean_batch": cells / tasks,
        "events.fired": fired,
        "unfold_partition.us_per_cell": per(group("models.unfold", "subgraph.partition"), cells),
        "scheduler.us_per_task": per(group("scheduler.", "policies."), tasks),
        # The live loop is the bridge: run_due pumped by asyncio timers.
        "events.us_per_event": per(self_s["events.loop"] + self_s["serve.bridge"], fired),
        "cluster.route_us_per_request": per(group("cluster."), traced["submitted"]),
        "serve.us_per_submit": per(group("serve."), posts),
        "serve.late_fires": live_median("late_fires"),
        "serve.max_drift_ms": live_median("max_drift_ms"),
        "live.submit_p50_ms": live_median("submit_p50_ms"),
        "live.submit_p99_ms": live_median("submit_p99_ms"),
        "live.latency_p50_ms": live_median("latency_p50_ms"),
        "live.latency_p99_ms": live_median("latency_p99_ms"),
        "live.loadgen_late_p99_ms": live_median("loadgen_late_p99_ms"),
        "host.cpu_s": statistics.median(r["cpu_s"] for r in untraced),
        "host.wall_s": statistics.median(r["wall_s"] for r in untraced),
        "host.speed": statistics.median(r["host_speed"] for r in untraced),
        "trace.region_s": region_s,
        "trace.overhead_ratio": traced["host_s"]
        / statistics.median(r["host_s"] for r in untraced),
        "trace.accounted_share": sum(self_s.values()) / region_s,
        "trace.missing_hooks": len(ledger["missing"]),
    })
    return out


def layer_unit(name: str) -> str:
    """Layer metrics carry their unit in their name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), (".share", "ratio"), ("_share", "ratio"),
                         ("_ratio", "ratio"), (".speed", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us" if "us_per_" in name else "count"


# -- output checks across repetitions ----------------------------------------


def check(workload: str, kind: str, untraced, traced, layers) -> List[str]:
    """Every repetition's own problems, plus what must hold between them:
    the exact values (fingerprint, sim_*, counts) repeat, and tracing
    changed nothing."""
    problems = [p for rep in untraced + ([traced] if traced else []) for p in rep["problems"]]
    first = untraced[0]["exact"]
    for i, rep in enumerate(untraced[1:], start=2):
        if rep["exact"] != first:
            problems.append(f"repetition {i} differs from the first: {rep['exact']} != {first}")
    if traced is None:
        return problems
    if traced["exact"] != first:
        problems.append(f"the traced run differs: {traced['exact']} != {first}")
    if traced["ledger"]["missing"]:
        print(f"note: entry points not found: {traced['ledger']['missing']}", file=sys.stderr)
    for layer in spans.LAYERS:
        if layer.startswith(ABSENT_LAYERS[workload]) and layers[f"{layer}.calls"] != 0:
            problems.append(f"{layer} ran {layers[f'{layer}.calls']} times, expected none")
    if kind == "sim" and layers["trace.accounted_share"] < MIN_ACCOUNTED_SHARE:
        problems.append(
            f"the layers account for {layers['trace.accounted_share']:.3f} of the traced "
            f"run, below {MIN_ACCOUNTED_SHARE}"
        )
    return problems


# -- the run --------------------------------------------------------------------


def workload_result(workload, cfg, decl, untraced, traced) -> Dict[str, Any]:
    kind = cfg["kind"]
    layers = layer_values(kind, untraced, traced) if traced is not None else None
    reps = untraced + ([traced] if traced is not None else [])
    return {
        "config": cfg,
        "end_to_end": end_to_end(kind, untraced, decl["end_to_end"]),
        # Untouched, per untraced repetition: what the reference seconds
        # were made from (speed 1 = the reference machine).
        "repetitions": [{key: rep[key] for key in RAW_KEYS} for rep in untraced],
        "layers": layers,
        "exact": untraced[0]["exact"],
        "attempted": sum(r["submitted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": check(workload, kind, untraced, traced, layers),
    }


def print_result(workload: str, result: Dict[str, Any]) -> None:
    print(f"== {workload}")
    for name, m in result["end_to_end"].items():
        print(
            f"{name:24s} {m['median']:14.4f} {m['unit']:5s}  "
            f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  n {m['n']}"
        )
    speeds = [rep["host_speed"] for rep in result["repetitions"]]
    print(f"machine speed {statistics.median(speeds):.3f}, {min(speeds):.3f} to "
          f"{max(speeds):.3f} over the repetitions")
    if result["layers"] is not None:
        for name, value in result["layers"].items():
            print(f"{name:36s} {value:14.6f} {layer_unit(name)}")
    print(f"fingerprint {result['exact']['fingerprint']}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")


def measure(names: List[str], args, decl) -> Dict[str, Any]:
    """The one schedule: untraced repetitions round-robin over ``names``
    until ``--seconds`` per workload are used up (at least ``MIN_REPS``
    rounds; ``--smoke``: one), then one traced repetition each if asked."""
    cfgs = {name: workloads.config(name, smoke=args.smoke) for name in names}
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    budget_s = args.seconds * len(names)
    started = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            untraced[name].append(run_rep(name, args.seed, False, args.smoke))
        rounds += 1
        elapsed = time.perf_counter() - started
        if args.smoke or (rounds >= MIN_REPS and elapsed + elapsed / rounds > budget_s):
            break
    results = {}
    for name in names:
        traced = run_rep(name, args.seed, True, args.smoke) if args.trace else None
        results[name] = workload_result(name, cfgs[name], decl, untraced[name], traced)
        print_result(name, results[name])
    return results


def result_line(result: Dict[str, Any], decl, trace: int) -> str:
    """What the driver reads: one workload's declared metrics on one line."""
    if trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                   for m in decl["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in decl["end_to_end"]}
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def write_result(args, results: Dict[str, Any]) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    document = {
        "schema": 1,
        "seed": args.seed,
        "smoke": args.smoke,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.platform(),
            "commit": commit,
        },
        "workloads": results,
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"[result -> {args.out}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None,
                        help="run this workload only (default: all four)")
    parser.add_argument("--seed", type=int, default=42,
                        help="drives both the arrival and the dataset seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds a traced repetition per workload for the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the size, once: checks and schema only")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full result JSON here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    decl = declaration()
    if args.seconds is None:
        args.seconds = float(decl["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in decl["workloads"]]
    try:
        results = measure(names, args, decl)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_result(args, results)
    if args.workload:
        print(result_line(results[args.workload], decl, args.trace))
    return 1 if any(r["problems"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
