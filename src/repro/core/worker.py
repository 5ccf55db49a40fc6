"""Workers: one per GPU device.

A worker receives batched tasks from the scheduler, launches their kernels
asynchronously on its device's FIFO stream (so dependent tasks submitted in
order need no synchronisation, §5), and reports completions back to the
manager through the signal-kernel callback — the simulation analogue of the
pinned-host signal variable the polling thread watches.

Failure semantics (DESIGN.md §8): a task execution can carry an injected
:class:`~repro.faults.plan.TaskFault`.  A *straggler* fault stretches the
kernel time; a *kernel failure* consumes the device time but delivers a
failure signal instead of a completion, which the manager turns into a
retry or a cancellation.  A dead device (:meth:`fail_device`) cancels every
in-flight completion and fails the corresponding tasks immediately.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.core.task import BatchedTask
from repro.faults.plan import KERNEL_FAIL, STRAGGLER, TaskFault
from repro.gpu.costmodel import CostModel
from repro.gpu.device import GPUDevice


class Worker:
    """Executes batched tasks on one (simulated) GPU."""

    def __init__(
        self,
        worker_id: int,
        device: GPUDevice,
        cost_model: CostModel,
        on_task_complete: Callable[["Worker", BatchedTask], None],
        real_compute: bool = False,
        on_task_failed: Optional[
            Callable[["Worker", BatchedTask, str], None]
        ] = None,
    ):
        self.worker_id = worker_id
        self.device = device
        self.cost_model = cost_model
        self._on_task_complete = on_task_complete
        self._on_task_failed = on_task_failed
        self.real_compute = real_compute
        self.alive = True
        self.tasks_executed = 0
        self.tasks_failed = 0
        self.busy_time = 0.0
        self.gathers_performed = 0
        # In-flight tasks in submission order, each holding its signal
        # (``task.signal``).  The device's stream is FIFO, so tasks retire
        # in this order: a retiring task is always the oldest, and device
        # loss fails them in the order their completions would have fired.
        self._inflight: Deque[BatchedTask] = deque()
        # Batch composition (subgraph-id set) of the most recently submitted
        # task: an identical composition needs no gather copy (§4.3).
        self._last_composition = None

    def submit(
        self,
        task: BatchedTask,
        extra_cost: float = 0.0,
        fault: Optional[TaskFault] = None,
    ) -> None:
        """Accept a task: run the (NumPy) computation in stream order and
        reserve the modelled device time.

        In real-compute mode the gather/compute/scatter happens here, at
        submission: tasks are submitted in dependency order (FIFO stream on
        a pinned worker; cross-subgraph release only after completion), so
        every input row is already materialised.
        """
        if task.worker_id is not None:
            raise RuntimeError(f"task {task.task_id} submitted twice")
        if not self.alive:
            raise RuntimeError(
                f"task {task.task_id} submitted to dead worker {self.worker_id}"
            )
        task.worker_id = self.worker_id
        will_fail = fault is not None and fault.kind == KERNEL_FAIL
        if self.real_compute:
            # Even when the kernel is to fail: the fault withholds the
            # completion signal, not the stream slot.  A later task on this
            # stream may already hold the next optimistic step, and the
            # retry recomputes the same rows (DESIGN.md §27).
            task.execute()
        composition = frozenset([subgraph.subgraph_id for subgraph, _ in task.plan])
        needs_gather = composition != self._last_composition
        self._last_composition = composition
        if needs_gather:
            self.gathers_performed += 1
        cost_model, cell_type = self.cost_model, task.cell_type
        task.gather_time = cost_model.gather_overhead if needs_gather else 0.0
        task.migration_time = extra_cost
        duration = cost_model.task_time(
            cell_type.name, task.batch_size, cell_type.num_operators, needs_gather
        ) + extra_cost
        if fault is not None and fault.kind == STRAGGLER:
            duration *= fault.slowdown
        task.duration = duration
        if self.device.energy is not None:
            # Charge the batched kernel at the frequency in effect now;
            # stragglers and gather/migration copies burn power too, so the
            # final wall duration is the right integrand.
            self.device.energy.charge_task(duration)
        self._inflight.append(task)
        task.signal = self.device.run_for(
            duration, self._kernel_fault if will_fail else self._complete
        )

    def _complete(self) -> None:
        """The oldest in-flight task retired (its completion signal)."""
        task = self._inflight.popleft()
        self.device.retire(task.signal.time)
        self.tasks_executed += 1
        self.busy_time += task.duration or 0.0
        self._on_task_complete(self, task)

    def _kernel_fault(self) -> None:
        """The oldest in-flight task's kernel failed.  The fault shows at
        the retire time: the device time was consumed, and the task fails
        instead of completing."""
        task = self._inflight[0]
        self.device.retire(task.signal.time)
        self.busy_time += task.duration or 0.0
        self._fail("kernel_fault")

    def _fail(self, reason: str) -> None:
        """The oldest in-flight task did not retire cleanly (a kernel
        fault, or the device died under it)."""
        task = self._inflight.popleft()
        self.tasks_failed += 1
        if self._on_task_failed is None:
            raise RuntimeError(
                f"task {task.task_id} failed ({reason}) but worker "
                f"{self.worker_id} has no failure handler"
            )
        self._on_task_failed(self, task, reason)

    def fail_device(self) -> List[BatchedTask]:
        """The device died: cancel every in-flight task's signal, then fail
        the tasks in submission order.  Returns the failed tasks."""
        if not self.alive:
            return []
        self.alive = False
        self.device.fail()
        doomed = list(self._inflight)
        for task in doomed:
            task.signal.cancel()
        for _ in doomed:
            self._fail("device_lost")
        return doomed

    @property
    def outstanding(self) -> int:
        """Submitted tasks not yet retired."""
        return len(self._inflight)

    def __repr__(self) -> str:
        state = "" if self.alive else " DEAD"
        return f"<Worker {self.worker_id} outstanding={self.outstanding}{state}>"
