"""Shared machinery for the fault-injection (chaos) test suites.

``run_chaos`` drives a BatchMaker server through a fixed-seed Poisson
workload under a fault plan and returns every submitted request, so the
suites can assert *global* invariants rather than sampled behaviours.
``CHAOS_SEEDS`` (comma-separated ints, env var) lets CI fan the randomized
suites out over several seeds without editing the tests.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.request import RequestState
from repro.faults import FaultPlan, SLAConfig
from repro.models import LSTMChainModel
from repro.workload import SequenceDataset
from repro.workload.arrivals import PoissonArrivals
from tests.oracles.bruteforce_scheduler import (
    install_reference_scans,
    recount_ready_nodes,
)
from tests.oracles.reference_values import recount_pending


def chaos_seeds(default: str = "7,23,51") -> List[int]:
    """Seeds for the randomized suites; CI overrides via CHAOS_SEEDS."""
    raw = os.environ.get("CHAOS_SEEDS", default)
    return [int(s) for s in raw.split(",") if s.strip()]


def build_server(
    fault_plan: Optional[FaultPlan] = None,
    sla: Optional[SLAConfig] = None,
    num_gpus: int = 1,
    max_batch: int = 64,
    reference: bool = False,
    model=None,
    **config_kwargs,
) -> BatchMakerServer:
    """``reference=True`` schedules by the brute-force scans of
    ``tests/oracles/bruteforce_scheduler.py``."""
    server = BatchMakerServer(
        model if model is not None else LSTMChainModel(),
        config=BatchingConfig.with_max_batch(max_batch, **config_kwargs),
        num_gpus=num_gpus,
        fault_plan=fault_plan,
        sla=sla,
    )
    return install_reference_scans(server) if reference else server


def run_chaos(
    server: BatchMakerServer,
    rate: float = 3000.0,
    num_requests: int = 300,
    arrival_seed: int = 7,
    deadline: Optional[float] = None,
    dataset_seed: int = 1,
    dataset=None,
) -> List:
    """Submit a fixed-seed workload (chain lengths, unless ``dataset`` says
    otherwise), drain, return the submitted requests."""
    if dataset is None:
        dataset = SequenceDataset(seed=dataset_seed)
    arrivals = PoissonArrivals(rate, seed=arrival_seed)
    submitted = []
    for when in arrivals.times(num_requests):
        submitted.append(
            server.submit(dataset.sample_one(), arrival_time=when, deadline=deadline)
        )
    server.drain()
    return submitted


def assert_invariants(server: BatchMakerServer, submitted: List) -> None:
    """The chaos invariants every run must satisfy, faults or not.

    1. Every submitted request reaches exactly one terminal state and is
       reported in exactly one of finished/timed_out/rejected.
    2. Nothing leaks: no pending events, no queued subgraphs, and the
       incremental ready counters match a brute-force recount.
    3. Engine counters reconcile with per-request outcomes.
    4. A finished request with a deadline met it.
    """
    # -- exactly-once terminal status ------------------------------------
    by_state = {
        RequestState.FINISHED: server.finished,
        RequestState.TIMED_OUT: server.timed_out,
        RequestState.REJECTED: server.rejected,
    }
    reported_ids = []
    for state, bucket in by_state.items():
        for request in bucket:
            assert request.state is state, (request, state)
            reported_ids.append(request.request_id)
    assert len(reported_ids) == len(set(reported_ids)), "request reported twice"
    assert sorted(reported_ids) == sorted(r.request_id for r in submitted), (
        "hung or unreported requests: "
        f"{set(r.request_id for r in submitted) ^ set(reported_ids)}"
    )
    for request in submitted:
        assert request.terminal, f"request {request.request_id} never terminal"
        assert request.terminal_time is not None

    # -- no leaks ---------------------------------------------------------
    loop = server.loop
    assert loop.pending() == 0 == recount_pending(loop), "leaked events"
    scheduler = server.manager.scheduler
    for queue in scheduler._queues.values():
        assert not queue.subgraphs, f"leaked subgraphs in {queue!r}"
        assert queue.num_ready_nodes() == 0
        assert recount_ready_nodes(queue) == 0
        assert queue.running_tasks == 0, f"running-task leak in {queue!r}"
    for worker in server.manager.workers:
        assert worker.outstanding == 0, f"in-flight leak on {worker!r}"

    # -- counters reconcile ----------------------------------------------
    counters = server.fault_counters()
    assert counters.requests_completed == len(server.finished)
    assert counters.requests_timed_out == len(server.timed_out)
    assert counters.requests_rejected == len(server.rejected)
    assert counters.tasks_failed == sum(
        w.tasks_failed for w in server.manager.workers
    )

    # -- deadline-met requests really met it ------------------------------
    for request in server.finished:
        if request.deadline is not None:
            assert request.finish_time <= request.deadline, (
                f"request {request.request_id} finished past its deadline"
            )


def outcome_fingerprint(server, accounting: bool = True) -> Tuple:
    """Bit-comparable digest of a run, for one BatchMaker server or a whole
    cluster of them: per-request terminal outcomes (exact timestamps, retry
    and restart counts), the order requests reached each terminal list,
    fault counters, and per engine the batch-size histogram and what every
    worker executed.  A cluster adds its own counters, scaling timeline and
    per-replica routing tallies.

    ``accounting`` adds what the memory and energy models booked — joules,
    clock states, per-device peak reserved bytes.  A test that holds a spec
    to "pure observation" against a run without it passes False: the books
    differ there by design, the schedule must not.  ``tests/golden`` hashes
    the full tuple."""
    statuses = tuple(
        (r.request_id, r.state.value, r.terminal_time, r.retries, r.restarts)
        for r in sorted(
            server.terminal_requests(), key=lambda r: r.request_id
        )
    )
    order = tuple(
        tuple(r.request_id for r in bucket)
        for bucket in (server.finished, server.timed_out, server.rejected)
    )
    replicas = getattr(server, "replicas", None)
    engines = [server] if replicas is None else [r.server for r in replicas]
    digest = (
        statuses,
        order,
        tuple(sorted(server.fault_counters().as_dict().items())),
        server.tasks_submitted(),
        tuple(_engine_digest(engine, accounting) for engine in engines),
    )
    if replicas is not None:
        digest += (
            tuple(sorted(server.cluster_counters.as_dict().items())),
            tuple(server.scale_events),
            tuple((r.replica_id, r.state, r.routed) for r in replicas),
        )
    if accounting:
        digest += (server.energy_joules(),)
    return digest


def _engine_digest(server: BatchMakerServer, accounting: bool) -> Tuple:
    manager = server.manager
    workers = tuple(
        (w.tasks_executed, w.tasks_failed, w.gathers_performed, w.busy_time)
        for w in manager.workers
    )
    digest = (tuple(sorted(manager.scheduler.batch_size_counts.items())), workers)
    if accounting:
        digest += tuple(
            (
                None if d.memory is None else d.memory.peak_reserved,
                None
                if d.energy is None
                else (
                    d.energy.active_joules,
                    d.energy.frequency,
                    d.energy.frequency_changes,
                ),
            )
            for d in (w.device for w in manager.workers)
        )
    return digest
