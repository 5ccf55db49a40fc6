"""Benchmark harness for the scheduling/simulation engine.

Measurements:

* **Scheduler decisions/sec** at fixed queue depths, fast path vs the
  retained brute-force reference (``BatchingConfig(fast_path=False)``).
  The queue is populated the way a loaded multi-GPU server's queues look
  in the paper's Figure 7/13 regime: thousands of released chain
  subgraphs, most of them pinned to *other* workers, so the brute-force
  ``FormBatchedTask`` scan walks past them on every decision and the
  tier-selection recounts every subgraph's ready nodes.

* **Memory accounting** (:mod:`repro.gpu.memory` +
  :class:`~repro.policies.memory.MemoryAwareFormation`): raw
  reserve/release pairs/sec on one :class:`MemoryModel`, and the
  per-kick ``form()`` cost across the policy's states — inert
  pass-through (no spec attached: must cost the same as the paper
  formation), active with a roomy budget (the fit filter runs and keeps
  everything), and active under pressure (every member defers).

* **Energy accounting** (:mod:`repro.gpu.energy`): raw ``charge_task``
  calls/sec on one :class:`EnergyModel`, ``decide()`` calls/sec per
  registered DVFS governor, and the whole-run serving overhead of a
  V100 energy spec vs the identical energy-blind run (the cost the
  ``energy_spec is None`` guards are protecting against).

* **Serving front end** (:mod:`repro.bench.serve`): submit-path cost
  through ``ServeApp.submit_payload``, engine-outcome -> store sync cost
  per terminal, and end-to-end requests/sec through the live HTTP/1.1
  socket path.

* **Quick Fig-7 sweep wall-clock**, serial vs ``--jobs``-parallel, with an
  identical-summaries cross-check (the parallel runner must change nothing
  but the wall-clock).

Cluster routing has no section here: ``benchmarks/e2e``'s ``cluster_short``
workload measures it in context (DESIGN.md §13).

Results are written to ``BENCH_engine.json`` (repo root) so future PRs can
compare; ``--check`` fails when a section's rate regresses by more than 2x
against a committed baseline file (sections absent from either side are
skipped).  ``--profile`` prints the cProfile top-20 cumulative entries so
hot-path hunts don't start blind; ``--only`` restricts the run to named
sections.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

BENCH_SCHEMA = 10
DEFAULT_DEPTHS = (250, 1000, 4000)
SMOKE_DEPTHS = (250, 1000)
# Policy bundles timed by bench_policy_overhead: decision rate of the
# default Algorithm 1 bundle vs swapped-in variants at one queue depth.
POLICY_VARIANTS = (
    ("paper", {}),
    ("flat_priority", {"priority": "flat"}),
    ("longest_queue", {"priority": "longest_queue"}),
    ("no_mix", {"formation": "no_mix"}),
)
# Pinned-elsewhere fraction / worker count for the loaded-queue shape.
BENCH_WORKERS = 8
CHAIN_LENGTH = 32
REGRESSION_FACTOR = 2.0


class _BenchWorker:
    def __init__(self, worker_id: int):
        self.worker_id = worker_id


def _build_loaded_scheduler(fast_path: bool, depth: int, policies=None):
    """A scheduler whose single queue holds ``depth`` chain subgraphs, 7/8
    of them pinned to workers other than the one we schedule for."""
    from repro.core.cell_graph import CellGraph
    from repro.core.config import BatchingConfig
    from repro.core.request import InferenceRequest
    from repro.core.scheduler import Scheduler
    from repro.core.subgraph import partition_into_subgraphs
    from repro.models import LSTMChainModel

    model = LSTMChainModel()
    # max_batch 4 / one task per round isolates the per-decision scheduling
    # cost (the quantity under test) from the per-node commit cost that the
    # fast and brute-force paths share.
    config = BatchingConfig.with_max_batch(
        4, max_tasks_to_submit=1, fast_path=fast_path
    )
    if policies is not None:
        policies.placement.prepare(BENCH_WORKERS)
    scheduler = Scheduler(config, submit=lambda task, worker: None, policies=policies)
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    for rid in range(depth):
        graph = CellGraph()
        model.unfold(graph, CHAIN_LENGTH)
        request = InferenceRequest(rid, CHAIN_LENGTH, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request, start_id=rid)
        request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
        for sg in subgraphs:
            scheduler.add_subgraph(sg)
            # Interleave pinned-elsewhere subgraphs with worker-0-eligible
            # ones so eligibility is scattered through the FIFO.
            if rid % BENCH_WORKERS != 0:
                sg.pin(1 + rid % (BENCH_WORKERS - 1))
    return scheduler


def _time_decisions(scheduler, max_seconds: float, max_decisions: int) -> Dict:
    worker = _BenchWorker(0)
    decisions = 0
    start = time.perf_counter()
    while decisions < max_decisions:
        if scheduler.schedule(worker) == 0:
            break  # worker-0-eligible work drained
        decisions += 1
        if time.perf_counter() - start >= max_seconds:
            break
    elapsed = time.perf_counter() - start
    rate = decisions / elapsed if elapsed > 0 else 0.0
    return {
        "decisions": decisions,
        "seconds": elapsed,
        "decisions_per_sec": rate,
        "us_per_decision": 1e6 / rate if rate > 0 else None,
    }


def bench_scheduler(
    depths=DEFAULT_DEPTHS, max_seconds: float = 2.0, max_decisions: int = 2000
) -> Dict[str, Dict]:
    """Decisions/sec, fast path vs brute-force reference, per queue depth."""
    results: Dict[str, Dict] = {}
    for depth in depths:
        fast = _time_decisions(
            _build_loaded_scheduler(True, depth), max_seconds, max_decisions
        )
        brute = _time_decisions(
            _build_loaded_scheduler(False, depth), max_seconds, max_decisions
        )
        speedup = (
            fast["decisions_per_sec"] / brute["decisions_per_sec"]
            if brute["decisions_per_sec"]
            else float("inf")
        )
        results[f"depth_{depth}"] = {
            "queue_depth": depth,
            "fast": fast,
            "brute_force": brute,
            "speedup": speedup,
        }
    return results


def bench_policy_overhead(
    depth: int = 1000, max_seconds: float = 2.0, max_decisions: int = 1000
) -> Dict[str, Dict]:
    """Scheduler-decision cost through the policy layer.

    Times the default Algorithm 1 bundle and each swapped variant on the
    same loaded queue (fast path).  ``vs_paper`` is the decision-rate
    ratio against the default bundle — the per-decision overhead (or
    saving) a policy swap costs.  The 2x regression gate stays on the
    ``scheduler.*.fast`` numbers, which compare the default bundle
    against the committed pre-policy-layer baseline.
    """
    from repro.core.config import BatchingConfig
    from repro.policies import bundle_from_names

    config = BatchingConfig.with_max_batch(4, max_tasks_to_submit=1)
    results: Dict[str, Dict] = {}
    paper_rate = None
    for name, overrides in POLICY_VARIANTS:
        bundle = bundle_from_names(config, **overrides)
        timing = _time_decisions(
            _build_loaded_scheduler(True, depth, policies=bundle),
            max_seconds,
            max_decisions,
        )
        if name == "paper":
            paper_rate = timing["decisions_per_sec"]
        timing["vs_paper"] = (
            timing["decisions_per_sec"] / paper_rate if paper_rate else None
        )
        results[name] = {"queue_depth": depth, **timing}
    return results


class _FakeSLAManager:
    """The minimal manager surface LazyKickPolicy.attach_engine needs:
    a clock, the SLA, and a poke target for the wake timer."""

    class _Kicker:
        def kick(self) -> None:
            pass

    def __init__(self, loop, sla):
        self.loop = loop
        self.sla = sla
        self._poke = self._Kicker()
        self.predictor = None


def bench_slo(depth: int = 1000, calls: int = 2000) -> Dict[str, Dict]:
    """Slack-computation overhead per kick decision.

    Times ``formation.form()`` — the call the scheduler makes for every
    kick decision — on one loaded queue, across the lazy-kick states:

    * ``paper`` — the baseline formation;
    * ``lazy_inert`` — LazyKickPolicy without an SLA (must cost the same
      as paper: the pass-through is a single attribute check);
    * ``lazy_hold`` — active policy, abundant slack: the slack scan runs
      and the hold path re-checks its deduplicated wake timer;
    * ``lazy_kick`` — active policy, expired slack: the slack scan runs
      and the plan is released.

    ``vs_paper`` is the per-call cost ratio; the 2x regression gate is on
    ``forms_per_sec`` so a superlinear slack scan cannot land silently.
    """
    from repro.core.config import BatchingConfig
    from repro.faults.sla import SLAConfig
    from repro.policies import bundle_from_names
    from repro.sim.events import EventLoop

    config = BatchingConfig.with_max_batch(4, max_tasks_to_submit=1)
    worker = _BenchWorker(0)
    scenarios = (
        ("paper", None, None, None),
        ("lazy_inert", "lazy_kick", None, None),
        ("lazy_hold", "lazy_kick", SLAConfig(default_deadline=0.5), 1.0),
        ("lazy_kick", "lazy_kick", SLAConfig(default_deadline=0.5), 0.0),
    )
    results: Dict[str, Dict] = {}
    paper_rate = None
    for name, formation, sla, deadline in scenarios:
        bundle = bundle_from_names(
            config, **({"formation": formation} if formation else {})
        )
        scheduler = _build_loaded_scheduler(True, depth, policies=bundle)
        policy = bundle.formation
        if sla is not None:
            policy.attach_engine(_FakeSLAManager(EventLoop(), sla))
            # A plausible per-node service estimate, so the slack scan
            # exercises the real predicted_service path.
            policy.predictor.observe_task(2e-3, 4)
        queue = next(iter(scheduler._queues.values()))
        if deadline is not None:
            for sg in queue.subgraphs.values():
                sg.request.deadline = deadline
        form = policy.form
        start = time.perf_counter()
        for _ in range(calls):
            form(queue, worker)
        elapsed = time.perf_counter() - start
        rate = calls / elapsed if elapsed > 0 else 0.0
        if name == "paper":
            paper_rate = rate
        results[name] = {
            "queue_depth": depth,
            "calls": calls,
            "seconds": elapsed,
            "forms_per_sec": rate,
            "us_per_form": 1e6 / rate if rate > 0 else None,
            "vs_paper": rate / paper_rate if paper_rate else None,
        }
    return results


class _BenchMemDevice:
    """The device surface MemoryAwareFormation.form touches: ``.memory``."""

    def __init__(self, memory):
        self.memory = memory


class _BenchMemWorker(_BenchWorker):
    def __init__(self, worker_id: int, memory):
        super().__init__(worker_id)
        self.device = _BenchMemDevice(memory)


class _FakeMemoryManager:
    """The minimal manager surface MemoryAwareFormation.attach_engine and
    the defer path need: the spec, a clock for the retry poke, and a poke
    target.  The cancel/evict paths are deliberately out of reach — the
    bench scenarios are constructed so no member is ever hopeless."""

    class _Kicker:
        def kick(self) -> None:
            pass

    def __init__(self, loop, spec):
        self.loop = loop
        self.memory_spec = spec
        self._poke = self._Kicker()


def bench_memory(
    depth: int = 1000, calls: int = 2000, reserve_ops: int = 200_000
) -> Dict[str, Dict]:
    """Memory-accounting overhead: the raw model and the kick filter.

    ``model`` times reserve/release pairs on one :class:`MemoryModel` —
    the accounting cost every dynamic-decode step pays when a budget is
    configured.  ``form`` times the formation call across the policy's
    states on one loaded queue:

    * ``paper`` — the baseline formation;
    * ``aware_inert`` — MemoryAwareFormation without a spec (must cost
      the same as paper: the pass-through is a single attribute check);
    * ``aware_fit`` — active policy, roomy budget: the fit filter walks
      the plan and keeps every member;
    * ``aware_defer`` — active policy, zero free bytes: every member
      defers (the steady state of a device under pressure).

    ``vs_paper`` is the per-call cost ratio; the 2x regression gate is
    on ``pairs_per_sec`` and ``forms_per_sec`` so neither the accounting
    nor the filter can grow superlinear silently.
    """
    from repro.core.config import BatchingConfig
    from repro.gpu.memory import DEFAULT_STATE_BYTES, MemoryModel, MemorySpec
    from repro.policies import bundle_from_names
    from repro.sim.events import EventLoop

    model = MemoryModel(capacity=1 << 40)
    start = time.perf_counter()
    for i in range(reserve_ops):
        model.reserve(i & 1023, DEFAULT_STATE_BYTES)
        model.release(i & 1023, DEFAULT_STATE_BYTES)
    elapsed = time.perf_counter() - start
    pair_rate = reserve_ops / elapsed if elapsed > 0 else 0.0
    results: Dict[str, Dict] = {
        "model": {
            "pairs": reserve_ops,
            "seconds": elapsed,
            "pairs_per_sec": pair_rate,
            "us_per_pair": 1e6 / pair_rate if pair_rate > 0 else None,
        }
    }

    config = BatchingConfig.with_max_batch(4, max_tasks_to_submit=1)
    # (name, capacity in state units, pre-reserved state units); None
    # capacity means no spec is attached and the policy stays inert.
    scenarios = (
        ("paper", None, 0),
        ("aware_inert", None, 0),
        ("aware_fit", 1 << 20, 0),
        ("aware_defer", 64, 64),
    )
    form_results: Dict[str, Dict] = {}
    paper_rate = None
    for name, capacity_units, held_units in scenarios:
        formation = {} if name == "paper" else {"formation": "memory_aware"}
        bundle = bundle_from_names(config, **formation)
        scheduler = _build_loaded_scheduler(True, depth, policies=bundle)
        policy = bundle.formation
        worker: _BenchWorker
        if capacity_units is None:
            worker = _BenchWorker(0)
        else:
            loop = EventLoop()
            # A far-future sentinel keeps loop.pending() > 0 so the defer
            # path stays a deferral (progress looks possible) instead of
            # escalating to the OOM triage the fake manager cannot serve.
            loop.call_after(1e9, lambda: None)
            spec = MemorySpec(capacity=capacity_units * DEFAULT_STATE_BYTES)
            policy.attach_engine(_FakeMemoryManager(loop, spec))
            memory = MemoryModel.from_spec(spec)
            if held_units:
                assert memory.reserve(10**9, held_units * DEFAULT_STATE_BYTES)
            worker = _BenchMemWorker(0, memory)
        queue = next(iter(scheduler._queues.values()))
        form = policy.form
        start = time.perf_counter()
        for _ in range(calls):
            form(queue, worker)
        elapsed = time.perf_counter() - start
        rate = calls / elapsed if elapsed > 0 else 0.0
        if name == "paper":
            paper_rate = rate
        form_results[name] = {
            "queue_depth": depth,
            "calls": calls,
            "seconds": elapsed,
            "forms_per_sec": rate,
            "us_per_form": 1e6 / rate if rate > 0 else None,
            "vs_paper": rate / paper_rate if paper_rate else None,
        }
    results["form"] = form_results
    return results


def bench_energy(
    charge_ops: int = 200_000,
    decisions: int = 200_000,
    num_requests: int = 800,
    rate: float = 5000.0,
) -> Dict:
    """Energy-accounting overhead: the raw books, the governors, and the
    whole-run cost of keeping them.

    * ``charge`` — tight-loop :meth:`EnergyModel.charge_task` calls with
      an 8-request batch (the per-kernel cost every submission pays when
      a spec is configured).
    * ``governors`` — ``decide()`` calls/sec per registered governor over
      a synthetic bursty busy-time stream (the per-batch-boundary DVFS
      cost; the stream swings between saturation and idle so the adaptive
      governors exercise both branches).
    * ``serving`` — wall-clock of one LSTM load point carrying the V100
      spec + race_to_idle governor vs the identical energy-blind run
      (best of 2 each): the end-to-end overhead the
      ``energy_spec is None`` guards are protecting against.

    The 2x regression gate is on ``charges_per_sec`` and each governor's
    ``decisions_per_sec`` so neither the books nor a governor can grow
    superlinear silently.
    """
    from repro.gpu.energy import GOVERNORS, EnergyModel, make_governor
    from repro.registry import build_server
    from repro.registry.presets import lstm_batchmaker_spec, lstm_energy_spec
    from repro.sim.timebase import measure_best
    from repro.workload import LoadGenerator, SequenceDataset

    model = EnergyModel()
    ids = list(range(8))
    start = time.perf_counter()
    for _ in range(charge_ops):
        model.charge_task(1e-4, ids)
    elapsed = time.perf_counter() - start
    charge_rate = charge_ops / elapsed if elapsed > 0 else 0.0
    results: Dict = {
        "charge": {
            "charges": charge_ops,
            "batch_requests": len(ids),
            "seconds": elapsed,
            "charges_per_sec": charge_rate,
            "us_per_charge": 1e6 / charge_rate if charge_rate > 0 else None,
        }
    }

    frequencies = (0.6, 0.8, 1.0)
    governor_results: Dict[str, Dict] = {}
    for name in sorted(GOVERNORS):
        governor = make_governor(name, frequencies)
        now = busy = 0.0
        start = time.perf_counter()
        for i in range(decisions):
            now += 1e-3
            if (i // 64) % 2 == 0:
                busy += 1e-3
            governor.decide(now, busy)
        elapsed = time.perf_counter() - start
        decide_rate = decisions / elapsed if elapsed > 0 else 0.0
        governor_results[name] = {
            "decisions": decisions,
            "seconds": elapsed,
            "decisions_per_sec": decide_rate,
            "us_per_decision": 1e6 / decide_rate if decide_rate > 0 else None,
        }
    results["governors"] = governor_results

    def run_once(energy: bool) -> None:
        spec = lstm_energy_spec() if energy else lstm_batchmaker_spec()
        server = build_server(spec)
        generator = LoadGenerator(rate=rate, num_requests=num_requests, seed=7)
        generator.run(server, SequenceDataset(seed=1))

    run_once(False)  # warm caches before timing either variant
    blind_s = measure_best(lambda: run_once(False), repeats=2)
    energized_s = measure_best(lambda: run_once(True), repeats=2)
    results["serving"] = {
        "run_requests": num_requests,
        "blind_seconds": blind_s,
        "energy_seconds": energized_s,
        "overhead_pct": (
            100.0 * (energized_s - blind_s) / blind_s if blind_s else None
        ),
    }
    return results


def bench_trace(
    record_events: int = 200_000, num_requests: int = 800, rate: float = 5000.0
) -> Dict:
    """Tracing cost: raw recording throughput and whole-run slowdown.

    * ``events_per_sec`` — tight-loop instants into a ring-buffer recorder
      (the per-event cost every instrumented site pays when tracing is on).
    * ``slowdown_pct`` — wall-clock of one traced LSTM load point vs the
      identical untraced run (best of 2 each); the end-to-end overhead the
      zero-cost-when-disabled guards are protecting against.
    """
    from repro.experiments import common
    from repro.sim.timebase import measure_best
    from repro.trace.recorder import TraceRecorder
    from repro.workload import LoadGenerator, SequenceDataset

    class _FixedClock:
        def now(self) -> float:
            return 0.0

    recorder = TraceRecorder(_FixedClock())
    scope = recorder.scope()
    start = time.perf_counter()
    for i in range(record_events):
        scope.instant("bench.event", "sched", request_id=i)
    record_seconds = time.perf_counter() - start
    events_per_sec = record_events / record_seconds if record_seconds else 0.0

    def run_once(traced: bool) -> None:
        server = common.lstm_batchmaker()
        if traced:
            server.attach_trace(TraceRecorder(server.loop))
        generator = LoadGenerator(rate=rate, num_requests=num_requests, seed=7)
        generator.run(server, SequenceDataset(seed=1))

    run_once(False)  # warm caches before timing either variant
    untraced_s = measure_best(lambda: run_once(False), repeats=2)
    traced_s = measure_best(lambda: run_once(True), repeats=2)
    slowdown_pct = (
        100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else None
    )
    return {
        "record_events": record_events,
        "record_seconds": record_seconds,
        "events_per_sec": events_per_sec,
        "us_per_event": 1e6 / events_per_sec if events_per_sec else None,
        "run_requests": num_requests,
        "untraced_seconds": untraced_s,
        "traced_seconds": traced_s,
        "slowdown_pct": slowdown_pct,
    }


def bench_fig7_quick(jobs: int = 2) -> Dict:
    """Wall-clock of the quick Fig-7 LSTM sweep, serial vs parallel, plus
    an identical-results cross-check."""
    from repro.experiments import common, fig7_lstm

    start = time.perf_counter()
    serial = fig7_lstm.run(quick=True, max_batch=512, jobs=1)
    serial_s = time.perf_counter() - start

    parallel_supported = common.parallel_sweep_supported()
    if parallel_supported:
        start = time.perf_counter()
        parallel = fig7_lstm.run(quick=True, max_batch=512, jobs=jobs)
        parallel_s = time.perf_counter() - start
        identical = _summaries_identical(serial, parallel)
    else:
        parallel_s = None
        identical = None

    return {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_supported": parallel_supported,
        "identical_summaries": identical,
        "note": (
            "parallel speedup scales with min(jobs, cores); on a single-core "
            "host the parallel run only checks result identity"
        ),
    }


def _summaries_identical(a: Dict[str, List], b: Dict[str, List]) -> bool:
    def key(summary):
        return (
            summary.system,
            summary.offered_rate,
            summary.throughput,
            summary.p50_ms,
            summary.p90_ms,
            summary.p99_ms,
            tuple(summary.stats.latencies),
        )

    if a.keys() != b.keys():
        return False
    return all(
        [key(s) for s in a[system]] == [key(s) for s in b[system]]
        for system in a
    )


# Section names accepted by --only (fig7 only runs in full mode).
BENCH_SECTIONS = (
    "scheduler",
    "policies",
    "slo",
    "memory",
    "energy",
    "trace",
    "serve",
    "fig7",
)


def run_engine_bench(
    smoke: bool = False,
    jobs: int = 2,
    only: Optional[List[str]] = None,
) -> Dict:
    depths = SMOKE_DEPTHS if smoke else DEFAULT_DEPTHS
    max_decisions = 500 if smoke else 2000

    def wanted(section: str) -> bool:
        return only is None or section in only

    bench = {
        "schema": BENCH_SCHEMA,
        "mode": "smoke" if smoke else "full",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
    }
    if wanted("scheduler"):
        bench["scheduler"] = bench_scheduler(depths, max_decisions=max_decisions)
    if wanted("policies"):
        bench["policies"] = bench_policy_overhead(
            depth=SMOKE_DEPTHS[-1] if smoke else 1000,
            max_decisions=250 if smoke else 1000,
        )
    if wanted("slo"):
        bench["slo"] = bench_slo(
            depth=SMOKE_DEPTHS[-1] if smoke else 1000,
            calls=500 if smoke else 2000,
        )
    if wanted("memory"):
        bench["memory"] = bench_memory(
            depth=SMOKE_DEPTHS[-1] if smoke else 1000,
            calls=500 if smoke else 2000,
            reserve_ops=50_000 if smoke else 200_000,
        )
    if wanted("energy"):
        bench["energy"] = bench_energy(
            charge_ops=50_000 if smoke else 200_000,
            decisions=50_000 if smoke else 200_000,
            num_requests=300 if smoke else 800,
        )
    if wanted("trace"):
        bench["trace"] = bench_trace(
            record_events=50_000 if smoke else 200_000,
            num_requests=300 if smoke else 800,
        )
    if wanted("serve"):
        from repro.bench.serve import bench_serve

        bench["serve"] = bench_serve(
            submit_requests=500 if smoke else 2000,
            http_requests=300 if smoke else 1000,
        )
    if wanted("fig7") and not smoke:
        bench["fig7_quick"] = bench_fig7_quick(jobs=jobs)
    return bench


def check_regression(current: Dict, baseline_path: str) -> List[str]:
    """Compare current fast-path decisions/sec against a committed baseline;
    returns a list of failure messages (empty = ok).  Only a >2x slowdown
    fails: absolute numbers vary across machines, an order-of-magnitude
    cliff means the O(1) path broke."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    for name, entry in baseline.get("scheduler", {}).items():
        if name not in current.get("scheduler", {}):
            continue
        base_rate = entry["fast"]["decisions_per_sec"]
        cur_rate = current["scheduler"][name]["fast"]["decisions_per_sec"]
        if base_rate > 0 and cur_rate < base_rate / REGRESSION_FACTOR:
            failures.append(
                f"{name}: fast path {cur_rate:,.0f} decisions/s is more than "
                f"{REGRESSION_FACTOR}x below baseline {base_rate:,.0f}"
            )
    for name, entry in baseline.get("slo", {}).items():
        if name not in current.get("slo", {}):
            continue
        base_rate = entry["forms_per_sec"]
        cur_rate = current["slo"][name]["forms_per_sec"]
        if base_rate > 0 and cur_rate < base_rate / REGRESSION_FACTOR:
            failures.append(
                f"slo kick decision {name}: {cur_rate:,.0f} forms/s is more "
                f"than {REGRESSION_FACTOR}x below baseline {base_rate:,.0f}"
            )
    base_memory = baseline.get("memory", {})
    cur_memory = current.get("memory", {})
    base_pairs = base_memory.get("model", {}).get("pairs_per_sec")
    cur_pairs = cur_memory.get("model", {}).get("pairs_per_sec")
    if base_pairs and cur_pairs and cur_pairs < base_pairs / REGRESSION_FACTOR:
        failures.append(
            f"memory accounting: {cur_pairs:,.0f} reserve/release pairs/s is "
            f"more than {REGRESSION_FACTOR}x below baseline {base_pairs:,.0f}"
        )
    for name, entry in base_memory.get("form", {}).items():
        if name not in cur_memory.get("form", {}):
            continue
        base_rate = entry["forms_per_sec"]
        cur_rate = cur_memory["form"][name]["forms_per_sec"]
        if base_rate > 0 and cur_rate < base_rate / REGRESSION_FACTOR:
            failures.append(
                f"memory kick filter {name}: {cur_rate:,.0f} forms/s is more "
                f"than {REGRESSION_FACTOR}x below baseline {base_rate:,.0f}"
            )
    base_energy = baseline.get("energy", {})
    cur_energy = current.get("energy", {})
    base_charges = base_energy.get("charge", {}).get("charges_per_sec")
    cur_charges = cur_energy.get("charge", {}).get("charges_per_sec")
    if (
        base_charges
        and cur_charges
        and cur_charges < base_charges / REGRESSION_FACTOR
    ):
        failures.append(
            f"energy accounting: {cur_charges:,.0f} charges/s is more than "
            f"{REGRESSION_FACTOR}x below baseline {base_charges:,.0f}"
        )
    for name, entry in base_energy.get("governors", {}).items():
        if name not in cur_energy.get("governors", {}):
            continue
        base_rate = entry["decisions_per_sec"]
        cur_rate = cur_energy["governors"][name]["decisions_per_sec"]
        if base_rate > 0 and cur_rate < base_rate / REGRESSION_FACTOR:
            failures.append(
                f"governor {name}: {cur_rate:,.0f} decisions/s is more than "
                f"{REGRESSION_FACTOR}x below baseline {base_rate:,.0f}"
            )
    base_serve = baseline.get("serve", {})
    cur_serve = current.get("serve", {})
    for section, rate_key in (
        ("submit", "submits_per_sec"),
        ("sync", "outcomes_per_sec"),
        ("http", "requests_per_sec"),
    ):
        base_rate = base_serve.get(section, {}).get(rate_key)
        cur_rate = cur_serve.get(section, {}).get(rate_key)
        if base_rate and cur_rate and cur_rate < base_rate / REGRESSION_FACTOR:
            failures.append(
                f"serve {section}: {cur_rate:,.0f} {rate_key} is more than "
                f"{REGRESSION_FACTOR}x below baseline {base_rate:,.0f}"
            )
    base_trace = baseline.get("trace", {}).get("events_per_sec")
    cur_trace = current.get("trace", {}).get("events_per_sec")
    if base_trace and cur_trace and cur_trace < base_trace / REGRESSION_FACTOR:
        failures.append(
            f"trace recording: {cur_trace:,.0f} events/s is more than "
            f"{REGRESSION_FACTOR}x below baseline {base_trace:,.0f}"
        )
    return failures


def _print_report(bench: Dict) -> None:
    print("== engine benchmark ==")
    for name, entry in bench.get("scheduler", {}).items():
        print(
            f"{name}: fast {entry['fast']['decisions_per_sec']:,.0f} dec/s, "
            f"brute {entry['brute_force']['decisions_per_sec']:,.0f} dec/s, "
            f"speedup {entry['speedup']:.1f}x"
        )
    policies = bench.get("policies", {})
    if policies:
        depth = next(iter(policies.values()))["queue_depth"]
        parts = [
            f"{name} {entry['us_per_decision']:.1f} us/dec"
            + (f" ({entry['vs_paper']:.2f}x)" if name != "paper" else "")
            for name, entry in policies.items()
            if entry["us_per_decision"] is not None
        ]
        print(f"policy bundles @depth {depth}: " + ", ".join(parts))
    slo = bench.get("slo", {})
    if slo:
        depth = next(iter(slo.values()))["queue_depth"]
        parts = [
            f"{name} {entry['us_per_form']:.1f} us/form"
            + (f" ({entry['vs_paper']:.2f}x)" if name != "paper" else "")
            for name, entry in slo.items()
            if entry["us_per_form"] is not None
        ]
        print(f"slo kick decisions @depth {depth}: " + ", ".join(parts))
    memory = bench.get("memory", {})
    if memory:
        model = memory.get("model", {})
        if model.get("us_per_pair") is not None:
            print(
                f"memory model: {model['pairs_per_sec']:,.0f} reserve/release "
                f"pairs/s ({model['us_per_pair']:.2f} us/pair)"
            )
        form = memory.get("form", {})
        if form:
            depth = next(iter(form.values()))["queue_depth"]
            parts = [
                f"{name} {entry['us_per_form']:.1f} us/form"
                + (f" ({entry['vs_paper']:.2f}x)" if name != "paper" else "")
                for name, entry in form.items()
                if entry["us_per_form"] is not None
            ]
            print(f"memory kick filter @depth {depth}: " + ", ".join(parts))
    energy = bench.get("energy", {})
    if energy:
        charge = energy.get("charge", {})
        if charge.get("us_per_charge") is not None:
            print(
                f"energy model: {charge['charges_per_sec']:,.0f} charges/s "
                f"({charge['us_per_charge']:.2f} us/charge, batch of "
                f"{charge['batch_requests']})"
            )
        governors = energy.get("governors", {})
        if governors:
            parts = [
                f"{name} {entry['us_per_decision']:.2f} us/dec"
                for name, entry in governors.items()
                if entry["us_per_decision"] is not None
            ]
            print("governor decisions: " + ", ".join(parts))
        serving = energy.get("serving", {})
        if serving.get("overhead_pct") is not None:
            print(
                f"energy serving: {serving['overhead_pct']:+.1f}% vs "
                f"energy-blind run ({serving['run_requests']} requests)"
            )
    trace = bench.get("trace")
    if trace:
        print(
            f"trace: {trace['events_per_sec']:,.0f} events/s recorded "
            f"({trace['us_per_event']:.2f} us/event), traced run "
            f"{trace['slowdown_pct']:+.1f}% vs untraced"
        )
    serve = bench.get("serve", {})
    if serve:
        submit, sync, http = serve["submit"], serve["sync"], serve["http"]
        print(
            f"serve: submit {submit['us_per_submit']:.1f} us/req, sync "
            f"{sync['us_per_outcome']:.1f} us/outcome, http "
            f"{http['requests_per_sec']:,.0f} req/s end-to-end "
            f"(p50 {http['p50_ms']:.2f} ms, p99 {http['p99_ms']:.2f} ms)"
        )
    fig7 = bench.get("fig7_quick")
    if fig7:
        par = (
            f"{fig7['parallel_seconds']:.1f}s with --jobs {fig7['jobs']}"
            if fig7["parallel_seconds"] is not None
            else "n/a (no fork)"
        )
        print(
            f"fig7 quick sweep: serial {fig7['serial_seconds']:.1f}s, "
            f"parallel {par}, identical summaries: "
            f"{fig7['identical_summaries']} ({fig7['cpu_count']} cpu)"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the scheduling engine and experiment runner."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: fewer depths/decisions, skip the fig7 sweep",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, help="pool size for the parallel fig7 timing"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write results JSON here (default: BENCH_engine.json in cwd; "
        "pass --no-write via --out '' to skip)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a committed BENCH_engine.json; exit 1 on a "
        f">{REGRESSION_FACTOR}x decisions/sec regression",
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="SECTIONS",
        help="comma-separated subset of sections to run "
        f"(from: {', '.join(BENCH_SECTIONS)})",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative entries",
    )
    args = parser.parse_args(argv)

    only: Optional[List[str]] = None
    if args.only:
        only = [section.strip() for section in args.only.split(",") if section.strip()]
        unknown = [s for s in only if s not in BENCH_SECTIONS]
        if unknown:
            print(
                f"error: unknown section(s) {', '.join(unknown)} "
                f"(have: {', '.join(BENCH_SECTIONS)})",
                file=sys.stderr,
            )
            return 2

    def run() -> Dict:
        return run_engine_bench(smoke=args.smoke, jobs=args.jobs, only=only)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        bench = profiler.runcall(run)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    else:
        bench = run()
    _print_report(bench)

    failures: List[str] = []
    if args.check:
        try:
            failures = check_regression(bench, args.check)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}", file=sys.stderr)
            return 2
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print(f"[no regression vs {args.check}]")

    out = args.out
    if out is None:
        # A partial run must not clobber a committed full baseline.
        out = "" if only is not None else "BENCH_engine.json"
    if out:
        with open(out, "w") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[wrote {out}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
