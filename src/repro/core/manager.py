"""The manager: glue between request processor, scheduler and workers.

Mirrors Figure 6: arriving requests flow through the request processor into
the scheduler's per-cell-type queues; whenever a worker goes idle the
scheduler is invoked for it; task completions flow back through the request
processor, which may release new subgraphs and finish requests — after
which idle workers are poked again so freshly released work starts
immediately.

Failure handling (DESIGN.md §8) is part of the core and inert by default: a
:class:`~repro.faults.FaultPlan` fails or slows task executions and drops
devices; an :class:`~repro.faults.SLAConfig` arms deadline timers, retries
failed tasks with backoff on a surviving device and sheds load at
admission.  Every request reaches exactly one terminal state — FINISHED,
TIMED_OUT or REJECTED — and the :class:`~repro.metrics.FaultCounters`
reconcile with those outcomes.

Everything else — memory accounting, energy and DVFS, the lazy kick,
tracing, the owning server's terminal lists — reaches the
manager through one seam: :class:`~repro.extension.EngineExtension`
objects handed to :meth:`Manager.install`, called at seven lifecycle hooks
in installation order (DESIGN.md §22).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.config import BatchingConfig
from repro.core.request import BAD_PAYLOAD, InferenceRequest, PayloadError
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import Scheduler
from repro.core.task import BatchedTask
from repro.core.worker import Worker
from repro.extension import HOOKS, EngineExtension, bound_hooks
from repro.faults.plan import FaultPlan, KERNEL_FAIL, STRAGGLER
from repro.faults.sla import RetryPolicy, SLAConfig
from repro.gpu.costmodel import CostModel
from repro.gpu.device import make_devices
from repro.metrics.counters import FaultCounters
from repro.policies import PolicyBundle
from repro.server import DeferredKick
from repro.sim.events import EventLoop

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
        fault_plan: Optional[FaultPlan] = None,
        sla: Optional[SLAConfig] = None,
        policies: Optional[PolicyBundle] = None,
        extensions: Sequence[EngineExtension] = (),
    ):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.loop = loop
        self.cost_model = cost_model

        # Failure machinery; inert (and unqueried) when left at None.
        self.fault_plan = (
            fault_plan if fault_plan is not None and fault_plan.injects_anything()
            else None
        )
        self.sla = sla
        # Used for failed tasks (and preemptions) even without an SLAConfig.
        self.retry = sla.retry if sla is not None else RetryPolicy()
        self.fault_counters = FaultCounters()
        # Running per-node service-time estimate (EWMA), the engine's one
        # answer to "how long does a node take": the projected queueing
        # delay of load shedding and of the shortest_queue router (and of
        # predicted_delay before a replica's first finish), the lazy kick's
        # remaining-service slack and the cluster's energy metric.
        self.node_time_estimate = 0.0

        self.scheduler = Scheduler(config, submit=self._submit_task, policies=policies)
        self.policies = self.scheduler.policies  # the paper's, when None was given
        self.policies.placement.prepare(num_workers)
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
                on_task_complete=self._task_complete,
                real_compute=real_compute,
                on_task_failed=self._task_failed,
            )
            for device in make_devices(loop, num_workers)
        ]
        self.alive_devices = num_workers
        # Same coalesced end-of-timestamp dispatch the graph-batching
        # baselines use (repro.server.DeferredKick): simultaneous arrivals
        # batch together instead of the first grabbing an idle worker alone.
        self._poke = DeferredKick(loop, self._poke_idle_workers)

        # The seam: the caller's extensions first, then any policy of the
        # bundle that is one (lazy kick, memory-aware formation).
        self.extensions: List[EngineExtension] = []
        self._bind_hooks()
        bundle = self.policies
        for extension in (
            *extensions, bundle.priority, bundle.placement, bundle.formation
        ):
            if isinstance(extension, EngineExtension):
                self.install(extension)

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

    # -- the extension seam --------------------------------------------------

    def install(self, extension: EngineExtension) -> None:
        """Append ``extension`` to the hook order and let it wire itself
        to this engine (it may install further extensions from there)."""
        self.extensions.append(extension)
        extension.attach(self)
        self._bind_hooks()

    def uninstall(self, extension: EngineExtension) -> None:
        self.extensions.remove(extension)
        self._bind_hooks()

    def _bind_hooks(self) -> None:
        """Per hook, the bound methods that override the base no-op; the
        admission gates are the built-in ones followed by the extensions'."""
        for hook in HOOKS:
            setattr(self, "_" + hook, bound_hooks(self.extensions, hook))
        gates = [self._gate_no_devices]
        if self.sla is not None and self.sla.max_queue_delay is not None:
            gates.append(self._gate_load_shed)
        self._gates = (*gates, *self._admit)

    # -- request entry -----------------------------------------------------

    def submit_request(self, request: InferenceRequest) -> None:
        """Accept a request at its arrival time (already 'now').

        Scheduling is deferred to the end of the current timestamp so that
        simultaneously-arriving requests can be batched together instead of
        the first one grabbing an idle worker alone, and is arranged only
        while some worker is idle (``_kick_if_idle``).  A payload the model
        refuses at unfold is rejected (reason ``bad_payload: <why>``).
        """
        for gate in self._gates:
            reason = gate(request)
            if reason is not None:
                self._reject(request, reason)
                return
        sla = self.sla
        if sla is not None and request.deadline is None:
            if sla.default_deadline is not None:
                request.deadline = self.loop.now() + sla.default_deadline
        if request.deadline is not None:
            request._timeout_event = self.loop.call_at(
                max(request.deadline, self.loop.now()),
                lambda: self._deadline_expired(request),
            )
        try:
            self.processor.add_request(request)
        except PayloadError as refusal:
            self._reject(request, f"{BAD_PAYLOAD}: {refusal}")
            return
        self._kick_if_idle()

    def reenter_request(self, request: InferenceRequest) -> None:
        """Unfold a preempted request afresh (its backoff elapsed) — unless
        a deadline fired meanwhile (it is terminal and stays so) or every
        device died (cancelled rather than queued forever: the total-loss
        sweep could not see a request held outside the engine)."""
        if request.terminal:
            return
        if self.alive_devices:
            self.processor.add_request(request)
            self._kick_if_idle()
        else:
            self.cancel_request(request, reason="no_devices")

    # -- admission ------------------------------------------------------------

    def _reject(self, request: InferenceRequest, reason: str) -> None:
        request.mark_rejected(self.loop.now(), reason=reason)
        self.fault_counters.requests_rejected += 1
        self._retire(request)

    def _gate_no_devices(self, request: InferenceRequest) -> Optional[str]:
        # First and unconditional: a dead engine would queue it forever.
        return None if self.alive_devices else "no_devices"

    def _gate_load_shed(self, request: InferenceRequest) -> Optional[str]:
        over = self.projected_queue_delay(self.loop.now()) > self.sla.max_queue_delay
        return "load_shed" if over else None

    def projected_queue_delay(self, now: float) -> float:
        """Seconds a new arrival at ``now`` would plausibly wait before
        computing: the least-loaded surviving device's backlog plus the
        estimated drain time of everything already queued in the
        scheduler; infinite with no alive device.  Read per candidate
        replica on every routed arrival, so the caller reads the clock
        once per decision and this is plain loops (DESIGN.md §40)."""
        alive = self.alive_devices
        if not alive:
            return math.inf
        backlog = math.inf
        for worker in self.workers:
            if worker.alive:
                wait = worker.device.free_at - now
                if wait < backlog:
                    backlog = wait if wait > 0.0 else 0.0
        ready = 0
        for queue in self.scheduler.queues:
            ready += queue.num_ready_nodes()
        return backlog + ready * self.node_time_estimate / alive

    # -- scheduler -> worker -------------------------------------------------

    def _submit_task(self, task: BatchedTask, worker: Worker) -> None:
        for hook in self._on_task_submit:
            hook(task, worker)
        extra = self._place(task, worker)
        fault = None if self.fault_plan is None else self._draw_fault(task)
        worker.submit(task, extra, fault)

    def _place(self, task: BatchedTask, worker: Worker) -> float:
        """The one walk over a task's members at submission, after the
        submit hooks: start the requests not started yet and move each
        member's live state to ``worker``.  Returns the cross-device copy
        cost of the members whose state sat on another device — none under
        pinning, which is the point of pinning."""
        worker_id = worker.worker_id
        cost = 0.0
        for subgraph, _ in task.plan:
            last = subgraph.last_worker
            if last == worker_id:
                continue
            if last is None:  # the member's first task
                request = subgraph.request
                if request.start_time is None:
                    request.mark_started(self.loop.now())
            else:
                cost += self.policies.placement.hop_cost(worker)
            subgraph.last_worker = worker_id
        return cost

    def _draw_fault(self, task: BatchedTask):
        """The fault plan's verdict on this execution; callers ask only
        when there is a plan."""
        fault = self.fault_plan.task_fault(task.task_id, task.attempt)
        if fault is not None:
            if fault.kind == KERNEL_FAIL:
                self.fault_counters.kernel_failures_injected += 1
            elif fault.kind == STRAGGLER:
                self.fault_counters.stragglers_injected += 1
        return fault

    # -- worker -> manager ---------------------------------------------------

    def _task_complete(self, worker: Worker, task: BatchedTask) -> None:
        self.scheduler.task_completed(task)
        for hook in self._on_task_done:
            hook(task)
        if task.duration and task.batch_size:
            # Fold the task into the per-node service-time EWMA.
            sample = task.duration / task.batch_size
            if self.node_time_estimate == 0.0:
                self.node_time_estimate = sample
            else:
                self.node_time_estimate += 0.05 * (sample - self.node_time_estimate)
        self.processor.handle_task_completion(task, self.loop.now())
        self._poke_idle_workers()

    def _finished(self, request: InferenceRequest) -> None:
        request.mark_finished(self.loop.now())
        self.fault_counters.requests_completed += 1
        self._retire(request)

    def _retire(self, request: InferenceRequest) -> None:
        """The one tail of every terminal path (finished, cancelled,
        rejected): disarm the deadline timer, tell the extensions, then
        drop the request's engine state — the hooks read its subgraphs —
        so reference counting frees it here (DESIGN.md §24)."""
        timer = request._timeout_event
        if timer is not None:
            timer.cancel()
            request._timeout_event = None
        for hook in self._on_terminal:
            hook(request)
        self.processor.forget(request)

    # -- failure paths -------------------------------------------------------

    def _task_failed(self, worker: Worker, task: BatchedTask, reason: str) -> None:
        """A task execution did not retire: retry the surviving requests'
        portion of the batch with exponential backoff, or cancel them when
        the failure budget is spent."""
        self.scheduler.task_completed(task)
        self.fault_counters.tasks_failed += 1
        entries = _live_entries(task)
        retrying = bool(entries) and task.attempt < self.retry.max_retries
        delay = self.retry.backoff(task.attempt) if retrying else None
        for hook in self._on_task_failed:
            hook(task, reason, delay)
        if retrying:
            task.retain(entries)
            task.prepare_retry()
            self.fault_counters.retries_attempted += 1
            for request in _distinct_requests(entries):
                request.retries += 1
            self.loop.call_after(delay, lambda: self._run_retry(task))
        else:
            for request in _distinct_requests(entries):
                self.cancel_request(request, reason="retries_exhausted")
        self._poke_idle_workers()

    def _run_retry(self, task: BatchedTask) -> None:
        """Re-submit a failed task (backoff elapsed).  Requests that turned
        terminal during the backoff are dropped from the batch; if no alive
        device remains, the survivors are cancelled instead."""
        task.retain(_live_entries(task))
        entries = task.entries
        if not entries:
            return
        placement = self.policies.placement
        # By default the original worker when it still lives, else the
        # first survivor after it.
        target = placement.retry_target(task, self.workers)
        if target is None:
            for request in _distinct_requests(entries):
                self.cancel_request(request, reason="no_devices")
            return
        placement.on_retry(task, target)
        # An extension may cancel members here (a reservation the new
        # device refuses): they leave the batch before it launches.
        for hook in self._on_task_submit:
            hook(task, target)
        task.retain(_live_entries(task))
        if not task.entries:
            return
        # Cross-device copy cost applies when the retry lands on a different
        # GPU than the one holding the subgraphs' live state — priced after
        # the filter, so a member that left pays no copy.
        extra = self._place(task, target)
        self.scheduler.resubmit(task)
        fault = None if self.fault_plan is None else self._draw_fault(task)
        target.submit(task, extra, fault)

    def _device_failed(self, worker: Worker) -> None:
        """A device dropped out of the fault plan's sky."""
        if not worker.alive:
            return
        self.fault_counters.device_failures += 1
        self.alive_devices -= 1
        # Extensions first (residency markers pointing at the device must
        # go before its memory model resets), then failing the device fails
        # its in-flight tasks in submission order, which individually enter
        # the retry path above.
        for hook in self._on_device_lost:
            hook(worker)
        worker.fail_device()
        placement = self.policies.placement
        placement.on_device_failed(worker.worker_id)
        # Queued subgraphs pinned to the dead device migrate to the first
        # survivor (the same deterministic choice the retries make), so
        # their remaining cells stay schedulable.
        replacement = placement.replacement_for(worker.worker_id, self.workers)
        if replacement is not None:
            self.scheduler.repin_queued(worker.worker_id, replacement.worker_id)
            self._poke_idle_workers()
        else:
            # No devices left: everything still in flight is unservable.
            for request in list(self.processor.live_requests()):
                self.cancel_request(request, reason="no_devices")

    def fail_all_devices(self) -> None:
        """Whole-server loss (``repro.cluster`` replica failure): drop every
        device.  The last loss takes the total-loss path — live requests are
        cancelled (``"no_devices"``) and the loop is left clean, so a dead
        replica schedules no further work."""
        for worker in self.workers:
            self._device_failed(worker)

    # -- deadlines, cancellation, preemption ---------------------------------

    def _deadline_expired(self, request: InferenceRequest) -> None:
        request._timeout_event = None
        self.cancel_request(request, reason="deadline")

    def cancel_request(self, request: InferenceRequest, reason: str) -> bool:
        """Terminal cancellation: mark the request timed out and unwind its
        queued subgraphs from the scheduler.  Nodes already in flight are
        left to retire; the processor ignores completions for terminal
        requests."""
        if request.terminal:
            return False
        request.mark_timed_out(self.loop.now(), reason=reason)
        self.evict(request)
        self.fault_counters.requests_timed_out += 1
        self._retire(request)
        return True

    def evict(self, request: InferenceRequest) -> int:
        """Withdraw ``request``'s queued subgraphs from the scheduler (a
        cancellation, or an extension preempting it)."""
        evicted = self.scheduler.evict_request(request)
        for hook in self._on_evict:
            hook(request, evicted)
        return evicted

    # -- idle-driven scheduling ------------------------------------------------

    def wake(self) -> None:
        """Re-arm the coalesced dispatch kick, whatever the workers hold.
        The engine schedules itself: an arrival kicks when some worker is
        idle, and a completion or failure pokes the idle workers at once.
        Extensions (a lazy-kick wake-up, memory freed by a cancellation)
        and a live front end (:mod:`repro.serve`: shutdown drains,
        journal-replay resumes) call this after out-of-band changes, so
        formable work dispatches at the end of the current timestamp."""
        self._poke.kick()

    def _kick_if_idle(self) -> None:
        """Arm the coalesced dispatch kick for new work when some alive
        worker has nothing in flight.  With every worker busy the kick
        would find no worker to schedule: each busy worker is scheduled
        again by its own completion's poke, which sees this work
        (DESIGN.md §40)."""
        for worker in self.workers:
            if worker.alive and not worker._inflight:
                self._poke.kick()
                return

    def _poke_idle_workers(self) -> None:
        """Schedule every live worker with nothing in flight (the scheduler
        refills on idle)."""
        for worker in self.workers:
            if worker.alive and not worker._inflight:
                self.scheduler.schedule(worker)


def _live_entries(task: BatchedTask) -> list:
    return [entry for entry in task.entries if not entry[0].request.terminal]


def _distinct_requests(entries) -> List[InferenceRequest]:
    """Distinct requests contributing entries, in first-seen order."""
    seen: Dict[int, InferenceRequest] = {}
    for sg, _ in entries:
        seen.setdefault(sg.request.request_id, sg.request)
    return list(seen.values())
