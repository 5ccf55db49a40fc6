"""The manager: glue between request processor, scheduler and workers.

Mirrors Figure 6: arriving requests flow through the request processor into
the scheduler's per-cell-type queues; whenever a worker goes idle the
scheduler is invoked for it; task completions flow back through the request
processor, which may release new subgraphs and finish requests — after
which idle workers are poked again so freshly released work starts
immediately.

Failure handling (DESIGN.md §8) is layered on top and inert by default:

* a :class:`~repro.faults.FaultPlan` can fail or slow individual task
  executions and drop whole devices at scheduled times;
* an :class:`~repro.faults.SLAConfig` arms per-request deadline timers
  (cancellation unwinds the request's queued subgraphs without disturbing
  the scheduler's incremental counters), retries failed tasks with
  exponential backoff on a surviving device, and sheds load at admission
  when the projected queueing delay exceeds the SLO.

Every request reaches exactly one terminal state — FINISHED, TIMED_OUT or
REJECTED — and the :class:`~repro.metrics.FaultCounters` reconcile with
those outcomes; the chaos suite (``tests/test_faults_*``) holds both
invariants under randomized fault schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.config import BatchingConfig
from repro.core.request import InferenceRequest
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.core.task import BatchedTask
from repro.core.worker import Worker
from repro.faults.plan import FaultPlan, KERNEL_FAIL, STRAGGLER
from repro.faults.sla import RetryPolicy, SLAConfig
from repro.gpu.costmodel import CostModel
from repro.gpu.device import make_devices
from repro.gpu.energy import EnergyModel, EnergySpec, make_governor
from repro.gpu.memory import MemoryModel, MemorySpec
from repro.metrics.counters import FaultCounters
from repro.policies import PolicyBundle
from repro.server import DeferredKick
from repro.sim.events import EventLoop
from repro.trace import events as trace_events

if TYPE_CHECKING:  # avoids a circular import (models depend on core)
    from repro.models.base import Model


class Manager:
    """Owns the serving pipeline for one model."""

    def __init__(
        self,
        loop: EventLoop,
        model: Model,
        config: BatchingConfig,
        cost_model: CostModel,
        num_workers: int = 1,
        real_compute: bool = False,
        on_request_finished: Optional[Callable[[InferenceRequest], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        sla: Optional[SLAConfig] = None,
        on_request_timed_out: Optional[Callable[[InferenceRequest], None]] = None,
        on_request_rejected: Optional[Callable[[InferenceRequest], None]] = None,
        policies: Optional[PolicyBundle] = None,
        memory: Optional[MemorySpec] = None,
        energy: Optional[EnergySpec] = None,
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.loop = loop
        self.model = model
        self.config = config
        self.cost_model = cost_model
        self._on_request_finished = on_request_finished
        self._on_request_timed_out = on_request_timed_out
        self._on_request_rejected = on_request_rejected

        # Failure machinery; inert (and unqueried) when left at None.
        self.fault_plan = (
            fault_plan if fault_plan is not None and fault_plan.injects_anything()
            else None
        )
        self.sla = sla
        # Latency predictor (repro.policies.predict): fed from completed
        # tasks/requests when present.  Installed from the SLA config, or by
        # an SLA-aware formation policy's attach_engine (lazy kick); None
        # means no predictions are maintained (zero-cost default).
        self.predictor = sla.predictor if sla is not None else None
        self.fault_counters = FaultCounters()
        self.timed_out_requests: List[InferenceRequest] = []
        self.rejected_requests: List[InferenceRequest] = []
        # Running per-node service-time estimate (EWMA) for the projected
        # queueing delay used by load shedding.
        self._node_time_estimate = 0.0
        # Memory budget (repro.gpu.memory); None keeps the time-only device
        # model and skips every byte-accounting branch below.  A memory-aware
        # formation policy may install itself as ``memory_admission`` from
        # its attach_engine to shed arrivals at the front door.
        self.memory_spec = memory
        self.memory_admission = None
        # Joule accounting + DVFS (repro.gpu.energy); None skips every
        # energy branch below, keeping runs bit-identical to the
        # energy-blind engine.
        self.energy_spec = energy

        self.policies = (
            policies if policies is not None else PolicyBundle.from_config(config)
        )
        self.policies.placement.prepare(num_workers)
        self.scheduler = Scheduler(
            config, submit=self._submit_task, policies=self.policies
        )
        # SLA-aware formation policies (lazy kick) need the engine's clock,
        # SLA config and poke handle; the default policies ignore the hook.
        self.policies.formation.attach_engine(self)
        for cell_type in model.cell_types():
            self.scheduler.register_cell_type(cell_type)

        self.processor = RequestProcessor(
            model,
            on_release=self.scheduler.add_subgraph,
            on_finished=self._finished,
            collect_results=real_compute,
        )

        self.workers: List[Worker] = [
            Worker(
                worker_id=device.device_id,
                device=device,
                cost_model=cost_model,
                loop=loop,
                on_task_complete=self._task_complete,
                real_compute=real_compute,
                on_task_failed=self._task_failed,
            )
            for device in make_devices(loop, num_workers)
        ]
        if self.memory_spec is not None:
            for worker in self.workers:
                worker.device.memory = MemoryModel.from_spec(self.memory_spec)
        if self.energy_spec is not None:
            # One scaled cost model per DVFS state: kernel time goes as 1/f
            # relative to the calibrated table (tables carry ``@x`` names so
            # traces stay attributable), precomputed so a frequency change
            # is a pointer swap at the batch boundary.
            self._freq_cost_models = {
                f: cost_model if f == 1.0 else cost_model.scaled(1.0 / f)
                for f in self.energy_spec.frequencies
            }
            self._governors = {}
            now = loop.now()
            for worker in self.workers:
                worker.device.energy = EnergyModel.from_spec(
                    self.energy_spec, start_time=now
                )
                governor = make_governor(
                    self.energy_spec.governor,
                    self.energy_spec.frequencies,
                    **self.energy_spec.governor_params,
                )
                self._governors[worker.worker_id] = governor
                self._apply_frequency(worker, governor.initial_frequency())
        # Tracing scope (repro.trace), pushed down by the owning server's
        # attach_trace; None = record nothing (the zero-cost default).
        self.trace = None
        self.finished_requests: List[InferenceRequest] = []
        # Same coalesced end-of-timestamp dispatch the graph-batching
        # baselines use (repro.server.DeferredKick): simultaneous arrivals
        # batch together instead of the first grabbing an idle worker alone.
        self._poke = DeferredKick(loop, self._poke_idle_workers)

        if self.fault_plan is not None:
            for failure in self.fault_plan.device_failures():
                if failure.device_id >= num_workers:
                    raise ValueError(
                        f"fault plan kills device {failure.device_id} but the "
                        f"server only has {num_workers}"
                    )
                worker = self.workers[failure.device_id]
                self.loop.call_at(
                    max(failure.time, self.loop.now()),
                    lambda w=worker: self._device_failed(w),
                )

    # -- request entry -----------------------------------------------------

    def submit_request(self, request: InferenceRequest) -> None:
        """Accept a request at its arrival time (already 'now').

        Scheduling is deferred to the end of the current timestamp so that
        simultaneously-arriving requests can be batched together instead of
        the first one grabbing an idle worker alone.
        """
        if self.trace is not None:
            self.trace.instant(
                trace_events.REQUEST_ARRIVAL,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )
        reject_reason = None
        if self.fault_plan is not None and not any(w.alive for w in self.workers):
            # Every device is dead: without this check a request arriving
            # after total device loss would queue forever (devices only die
            # through the fault plan, so the healthy hot path skips it).
            reject_reason = "no_devices"
        elif self.sla is not None and self._should_shed(request):
            reject_reason = "load_shed"
        elif (
            self.memory_admission is not None
            and self.memory_admission.should_shed(request)
        ):
            reject_reason = "memory_shed"
        if reject_reason is not None:
            request.mark_rejected(self.loop.now(), reason=reject_reason)
            self.fault_counters.requests_rejected += 1
            self.rejected_requests.append(request)
            if self.trace is not None:
                self.trace.instant(
                    trace_events.REQUEST_REJECTED,
                    trace_events.LIFECYCLE,
                    request_id=request.request_id,
                    args={"reason": reject_reason},
                )
            if self._on_request_rejected is not None:
                self._on_request_rejected(request)
            return
        if self.sla is not None:
            if request.deadline is None and self.sla.default_deadline is not None:
                request.deadline = self.loop.now() + self.sla.default_deadline
        if request.deadline is not None:
            request._timeout_event = self.loop.call_at(
                max(request.deadline, self.loop.now()),
                lambda: self._deadline_expired(request),
            )
        self.processor.add_request(request)
        self._poke.kick()

    # -- SLA: admission control ---------------------------------------------

    def _should_shed(self, request: InferenceRequest) -> bool:
        if not any(w.alive for w in self.workers):
            return True  # no devices left: reject rather than hang
        if self.sla.max_queue_delay is None:
            return False
        return self.projected_queue_delay() > self.sla.max_queue_delay

    def projected_queue_delay(self) -> float:
        """Seconds a new arrival would plausibly wait before computing:
        the least-loaded surviving device's backlog plus the estimated
        drain time of everything already queued in the scheduler."""
        backlog = min(
            w.device.backlog() for w in self.workers if w.alive
        )
        queued = self.scheduler.total_ready_nodes() * self._node_time_estimate
        alive = sum(1 for w in self.workers if w.alive)
        return backlog + queued / alive

    def _observe_task(self, task: BatchedTask) -> None:
        """Fold a completed task into the per-node service-time EWMA."""
        if not task.duration or not task.batch_size:
            return
        if self.predictor is not None:
            self.predictor.observe_task(task.duration, task.batch_size)
        sample = task.duration / task.batch_size
        if self._node_time_estimate == 0.0:
            self._node_time_estimate = sample
        else:
            self._node_time_estimate += 0.05 * (sample - self._node_time_estimate)

    # -- scheduler -> worker -------------------------------------------------

    def _submit_task(self, task: BatchedTask, worker: Worker) -> None:
        if self.energy_spec is not None:
            # DVFS decisions happen only here, at the batch boundary, so
            # the schedule stays deterministic and the energy-off fast path
            # stays bit-identical (this branch is never taken without a
            # spec).  Retries reuse whatever frequency is then in effect.
            self._govern_frequency(worker)
        extra = self._migration_cost(task, worker)
        if self.memory_spec is not None:
            self._reserve_for_task(task, worker)
        now = self.loop.now()
        worker_id = worker.worker_id
        for subgraph in task.subgraphs():
            request = subgraph.request
            if request.start_time is None:
                request.mark_started(now)
            subgraph.last_worker = worker_id
        worker.submit(task, extra_cost=extra, fault=self._draw_fault(task))

    def _draw_fault(self, task: BatchedTask):
        if self.fault_plan is None:
            return None
        fault = self.fault_plan.task_fault(task.task_id, task.attempt)
        if fault is not None:
            if fault.kind == KERNEL_FAIL:
                self.fault_counters.kernel_failures_injected += 1
            elif fault.kind == STRAGGLER:
                self.fault_counters.stragglers_injected += 1
        return fault

    def _migration_cost(self, task: BatchedTask, worker: Worker) -> float:
        """Cross-device copy cost (placement policy) — zero under pinning,
        which is the point of pinning."""
        return self.policies.placement.migration_cost(task, worker)

    # -- energy accounting and DVFS (DESIGN.md §17) --------------------------

    def _govern_frequency(self, worker: Worker) -> None:
        """Let the worker's governor re-pick its DVFS state (batch boundary
        only).  A change swaps in the precomputed frequency-scaled cost
        model and re-rates the device's dynamic power; a trace instant
        carries the scaled table names so Chrome traces show which clock
        each kernel ran at."""
        governor = self._governors[worker.worker_id]
        frequency = governor.decide(self.loop.now(), worker.busy_time)
        if frequency != worker.device.energy.frequency:
            self._apply_frequency(worker, frequency)
            if self.trace is not None:
                self.trace.instant(
                    trace_events.DVFS_FREQUENCY,
                    trace_events.SCHED,
                    device_id=worker.worker_id,
                    args={
                        "frequency": frequency,
                        "tables": sorted(
                            t.name
                            for t in worker.cost_model.tables().values()
                        ),
                    },
                )

    def _apply_frequency(self, worker: Worker, frequency: float) -> None:
        worker.cost_model = self._freq_cost_models[frequency]
        worker.device.energy.set_frequency(frequency)

    def total_energy_joules(self) -> float:
        """Integrated energy across alive devices at the current sim time
        (active charges plus idle power; 0.0 without an energy spec)."""
        if self.energy_spec is None:
            return 0.0
        now = self.loop.now()
        total = 0.0
        for worker in self.workers:
            model = worker.device.energy
            if model is None or not worker.alive:
                continue
            busy = worker.device.timeline.busy_time(
                since=model.start_time, until=now
            )
            total += model.integrated_joules(now, busy)
        return total

    # -- memory accounting (DESIGN.md §15) -----------------------------------

    def _reserve_for_task(self, task: BatchedTask, worker: Worker) -> None:
        """Reserve hidden-state bytes on ``worker`` for every subgraph the
        task lands there (kick and retry paths both come through here).
        A subgraph migrating between devices releases on the old one first;
        a reservation the device refuses (it would overcommit — possible
        when a memory-*oblivious* formation policy planned the batch)
        OOM-cancels the owning request.  The kernel still runs: the abort
        happens at launch, after the batch was formed."""
        mem = worker.device.memory
        if mem is None:
            return
        state_bytes = self.memory_spec.state_bytes
        for sg in task.subgraphs():
            request = sg.request
            if request.terminal or sg.resident_on == worker.worker_id:
                continue
            if sg.resident_on is not None:
                old_mem = self.workers[sg.resident_on].device.memory
                if old_mem is not None:
                    old_mem.release(request.request_id, sg.resident_bytes)
                sg.resident_on = None
                sg.resident_bytes = 0
            if mem.reserve(request.request_id, state_bytes):
                sg.resident_on = worker.worker_id
                sg.resident_bytes = state_bytes
            else:
                self.fault_counters.oom_cancellations += 1
                self._cancel_request(request, reason="oom")

    def _release_memory(self, request: InferenceRequest) -> None:
        """Free every device-state reservation the request holds (terminal
        states and evict-and-restart); accounting telescopes to zero."""
        if self.memory_spec is None:
            return
        for sg in request.subgraphs.values():
            if sg.resident_on is not None:
                mem = self.workers[sg.resident_on].device.memory
                if mem is not None:
                    mem.release(request.request_id, sg.resident_bytes)
                sg.resident_on = None
                sg.resident_bytes = 0

    def _drop_residency(self, worker_id: int) -> None:
        """A device is about to die: its MemoryModel resets wholesale, so
        clear the per-subgraph residency markers pointing at it (otherwise a
        later release would underflow against the reset model)."""
        for request in self.processor.live_requests():
            for sg in request.subgraphs.values():
                if sg.resident_on == worker_id:
                    sg.resident_on = None
                    sg.resident_bytes = 0

    def restart_request(self, request: InferenceRequest) -> bool:
        """Evict-and-restart: preempt a non-terminal request under memory
        pressure, releasing its device state and unwinding its queued
        subgraphs, then resubmit it from scratch after the retry policy's
        backoff.  The caller (the ``memory_aware`` formation policy)
        guarantees no node is in flight; restarts beyond the retry budget
        cancel terminally instead (``"oom"``).  Returns True when the
        request was restarted, False when it was cancelled."""
        if request.terminal:
            return False
        for sg in request.subgraphs.values():
            if sg.inflight or sg.uncompleted != sg.unsubmitted:
                raise ValueError(
                    f"cannot restart request {request.request_id}: "
                    f"subgraph {sg.subgraph_id} has nodes in flight"
                )
        retry = self.sla.retry if self.sla is not None else _DEFAULT_RETRY
        if request.restarts >= retry.max_retries:
            self.fault_counters.oom_cancellations += 1
            self._cancel_request(request, reason="oom")
            return False
        request.restarts += 1
        self.fault_counters.memory_evictions += 1
        self.scheduler.evict_request(request)
        self._release_memory(request)
        self.processor.forget(request)
        request.graph = None
        request.subgraphs = {}
        request.remaining_nodes = 0
        if self.trace is not None:
            self.trace.instant(
                trace_events.REQUEST_RESTARTED,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
                args={"restarts": request.restarts},
            )
        delay = retry.backoff(request.restarts - 1)
        self.loop.call_after(delay, lambda: self._resubmit_restarted(request))
        return True

    def _resubmit_restarted(self, request: InferenceRequest) -> None:
        """Backoff elapsed: re-enter the restarted request (fresh unfold).
        A deadline that fired during the backoff wins — the request is
        already terminal and stays that way."""
        if request.terminal:
            return
        self.processor.add_request(request)
        self._poke.kick()

    # -- worker -> manager ---------------------------------------------------

    def _task_complete(self, worker: Worker, task: BatchedTask) -> None:
        self.scheduler.task_completed(task)
        if self.trace is not None:
            self._trace_task_span(task, trace_events.COMPUTE, self.loop.now())
        self._observe_task(task)
        self.processor.handle_task_completion(task, self.loop.now())
        self._poke_idle_workers()

    def _trace_task_span(self, task: BatchedTask, cat: str, end: float) -> None:
        """One span per task execution, ending at its retire time.  The
        device queued and ran it back-to-back on a FIFO stream, so the span
        is ``[end - duration, end)``; the gather/migration share is carried
        in args for the critical-path split."""
        self.trace.span(
            trace_events.TASK,
            cat,
            end - (task.duration or 0.0),
            task.duration or 0.0,
            device_id=task.worker_id,
            task_id=task.task_id,
            args={
                "requests": [sg.request.request_id for sg in task.subgraphs()],
                "gather": task.gather_time,
                "migration": task.migration_time,
                "cell": task.cell_type.name,
                "batch": task.batch_size,
                "attempt": task.attempt,
            },
        )

    def _finished(self, request: InferenceRequest) -> None:
        request.mark_finished(self.loop.now())
        self._disarm_timeout(request)
        self._release_memory(request)
        if self.predictor is not None:
            self.predictor.observe_request(
                request.latency, request.queuing_time, request.computation_time
            )
        self.fault_counters.requests_completed += 1
        self.finished_requests.append(request)
        if self.trace is not None:
            self.trace.instant(
                trace_events.REQUEST_FINISHED,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )
        if self._on_request_finished is not None:
            self._on_request_finished(request)

    # -- failure paths -------------------------------------------------------

    def _task_failed(self, worker: Worker, task: BatchedTask, reason: str) -> None:
        """A task execution did not retire: retry the surviving requests'
        portion of the batch with exponential backoff, or cancel them when
        the failure budget is spent."""
        self.scheduler.task_completed(task)
        self.fault_counters.tasks_failed += 1
        if self.trace is not None:
            if reason == "device_lost":
                # The kernel never retired: the device timeline is truncated
                # at the death instant, so no execution span — an instant
                # marks the casualty.
                self.trace.instant(
                    trace_events.TASK_DEVICE_LOST,
                    trace_events.RETRY,
                    device_id=task.worker_id,
                    task_id=task.task_id,
                    args={
                        "requests": [
                            sg.request.request_id for sg in task.subgraphs()
                        ],
                    },
                )
            else:
                # Kernel fault detected at retire time: the device time was
                # consumed, but by a failed attempt — charge it to retry.
                self._trace_task_span(task, trace_events.RETRY, self.loop.now())
        retry = self.sla.retry if self.sla is not None else _DEFAULT_RETRY
        entries = [
            (sg, node) for sg, node in task.entries if not sg.request.terminal
        ]
        if not entries:
            self._poke_idle_workers()
            return
        if task.attempt >= retry.max_retries:
            for request in _distinct_requests(entries):
                self._cancel_request(request, reason="retries_exhausted")
            self._poke_idle_workers()
            return
        task.entries = entries
        delay = retry.backoff(task.attempt)
        task.prepare_retry()
        self.fault_counters.retries_attempted += 1
        for request in _distinct_requests(entries):
            request.retries += 1
        if self.trace is not None:
            self.trace.span(
                trace_events.RETRY_BACKOFF,
                trace_events.RETRY,
                self.loop.now(),
                delay,
                task_id=task.task_id,
                args={
                    "requests": [
                        r.request_id for r in _distinct_requests(entries)
                    ],
                    "attempt": task.attempt,
                },
            )
        self.loop.call_after(delay, lambda: self._run_retry(task))
        self._poke_idle_workers()

    def _run_retry(self, task: BatchedTask) -> None:
        """Re-submit a failed task (backoff elapsed).  Requests that turned
        terminal during the backoff are dropped from the batch; if no alive
        device remains, the survivors are cancelled instead."""
        entries = [
            (sg, node) for sg, node in task.entries if not sg.request.terminal
        ]
        if not entries:
            return
        task.entries = entries
        target = self._retry_target(task)
        if target is None:
            for request in _distinct_requests(entries):
                self._cancel_request(request, reason="no_devices")
            return
        # Cross-device copy cost applies when the retry lands on a different
        # GPU than the one holding the subgraphs' live state.
        extra = self._migration_cost(task, target)
        self.policies.placement.on_retry(task, target)
        if self.memory_spec is not None:
            # The retry may land on a different device than the original
            # kick reserved on; move the reservations along with the work.
            self._reserve_for_task(task, target)
            task.entries = [
                (sg, node) for sg, node in task.entries
                if not sg.request.terminal
            ]
            if not task.entries:
                return
        for sg in task.subgraphs():
            sg.last_worker = target.worker_id
        self.scheduler.resubmit(task)
        target.submit(task, extra_cost=extra, fault=self._draw_fault(task))

    def _retry_target(self, task: BatchedTask) -> Optional[Worker]:
        """Retry placement (placement policy): by default the original
        worker when it still lives, else the first survivor after it."""
        return self.policies.placement.retry_target(task, self.workers)

    def _device_failed(self, worker: Worker) -> None:
        """A device dropped out of the fault plan's sky."""
        if not worker.alive:
            return
        self.fault_counters.device_failures += 1
        if self.trace is not None:
            self.trace.instant(
                trace_events.DEVICE_FAILED,
                trace_events.LIFECYCLE,
                device_id=worker.worker_id,
            )
        # Failing the device fails its in-flight tasks (in submission
        # order), which individually enter the retry path above.  Residency
        # markers pointing at it are cleared first: the MemoryModel resets
        # wholesale with the device, so per-subgraph releases against it
        # would underflow.
        if self.memory_spec is not None:
            self._drop_residency(worker.worker_id)
        worker.fail_device()
        self.policies.placement.on_device_failed(worker.worker_id)
        # Queued subgraphs pinned to the dead device migrate to the first
        # survivor (the same deterministic choice the retries make), so
        # their remaining cells stay schedulable.
        replacement = self._replacement_for(worker.worker_id)
        if replacement is not None:
            self.scheduler.repin_queued(worker.worker_id, replacement.worker_id)
            self._poke_idle_workers()
        else:
            # No devices left: everything still in flight is unservable.
            for request in list(self.processor.live_requests()):
                self._cancel_request(request, reason="no_devices")

    def _replacement_for(self, dead_worker_id: int) -> Optional[Worker]:
        return self.policies.placement.replacement_for(
            dead_worker_id, self.workers
        )

    def fail_all_devices(self) -> None:
        """Whole-server loss (``repro.cluster`` replica failure): drop every
        device.  The last loss takes the total-loss path — live requests are
        cancelled (``"no_devices"``) and the loop is left clean, so a dead
        replica schedules no further work."""
        for worker in self.workers:
            if worker.alive:
                self._device_failed(worker)

    # -- SLA: deadlines and cancellation ------------------------------------

    def _deadline_expired(self, request: InferenceRequest) -> None:
        request._timeout_event = None
        if request.terminal:
            return
        self._cancel_request(request, reason="deadline")

    def _cancel_request(self, request: InferenceRequest, reason: str) -> bool:
        """Terminal cancellation: mark the request timed out, unwind its
        queued subgraphs from the scheduler, and disarm its timer.  Nodes
        already in flight are left to retire; the processor ignores
        completions for terminal requests."""
        if request.terminal:
            return False
        request.mark_timed_out(self.loop.now(), reason=reason)
        self._disarm_timeout(request)
        self.scheduler.evict_request(request)
        self._release_memory(request)
        self.processor.abandon(request)
        self.fault_counters.requests_timed_out += 1
        self.timed_out_requests.append(request)
        if self.trace is not None:
            self.trace.instant(
                trace_events.REQUEST_TIMED_OUT,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
                args={"reason": reason},
            )
        if self._on_request_timed_out is not None:
            self._on_request_timed_out(request)
        if self.memory_spec is not None:
            # The freed state can make deferred members fit, and a
            # cancellation may be the last event alive (the memory-aware
            # formation triages dead-end members from within a dispatch
            # round) — re-run the dispatch loop or the drain hangs with
            # work still queued.  Without a memory model a cancellation
            # never creates newly schedulable work, so the kick stays
            # gated to keep the no-spec path bit-identical.
            self._poke.kick()
        return True

    @staticmethod
    def _disarm_timeout(request: InferenceRequest) -> None:
        if request._timeout_event is not None:
            request._timeout_event.cancel()
            request._timeout_event = None

    # -- idle-driven scheduling ------------------------------------------------

    def wake(self) -> None:
        """External wake hook: re-arm the coalesced dispatch kick.

        The engine normally kicks itself on every arrival/completion; a
        live front end (:mod:`repro.serve`) calls this after out-of-band
        state changes — shutdown drains and journal-replay resumes — so
        any formable work dispatches on the next timestamp without
        waiting for the next natural engine event.
        """
        self._poke.kick()

    def outstanding(self) -> int:
        """Requests accepted but not yet terminal (live drain progress)."""
        return self.processor.live_request_count()

    def _poke_idle_workers(self) -> None:
        for worker in self.workers:
            if worker.alive and worker.is_idle():
                self.scheduler.schedule(worker)


def _distinct_requests(entries) -> List[InferenceRequest]:
    """Distinct requests contributing entries, in first-seen order."""
    seen: Dict[int, InferenceRequest] = {}
    for sg, _ in entries:
        seen.setdefault(sg.request.request_id, sg.request)
    return list(seen.values())


# Used when a fault plan fails tasks but no SLAConfig was given.
_DEFAULT_RETRY = RetryPolicy()
