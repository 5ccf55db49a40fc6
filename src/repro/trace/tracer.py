"""The engine's tracer: lifecycle hooks in, trace events out.

``BatchMakerServer.attach_trace`` installs an :class:`EngineTracer` on its
manager and removes it on detach, so an untraced engine holds no trace
state and runs no trace code (DESIGN.md §12, §22); the arrival instant is
the owning server's, as for every other server kind.  Recording never
schedules loop work or mutates engine state, which is why a traced run
stays bit-identical to an untraced one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.extension import EngineExtension

from . import events as ev
from .recorder import TraceScope

_TERMINAL_EVENT = {
    "finished": ev.REQUEST_FINISHED,
    "timed_out": ev.REQUEST_TIMED_OUT,
    "rejected": ev.REQUEST_REJECTED,
}


def _members(task, live_only: bool = False) -> List[int]:
    """The request id behind each of ``task``'s subgraphs, in batch order."""
    return [
        sg.request.request_id
        for sg, _ in task.plan
        if not (live_only and sg.request.terminal)
    ]


class EngineTracer(EngineExtension):
    """Records one engine's scheduling, execution and request outcomes
    into a :class:`TraceScope`."""

    def __init__(self, scope: TraceScope):
        self.scope = scope
        # worker id -> the clock state last seen, to notice DVFS moves.
        self._frequency: Dict[int, float] = {}

    def attach(self, engine) -> None:
        self._now = engine.loop.now
        for worker in engine.workers:
            if worker.device.energy is not None:
                self._frequency[worker.worker_id] = worker.device.energy.frequency

    def on_task_submit(self, task, worker) -> None:
        if task.attempt:
            return  # a retry replays a scheduling decision, it makes none
        scope, worker_id = self.scope, worker.worker_id
        scope.instant(
            ev.SCHED_BATCH_FORMED, ev.SCHED, device_id=worker_id, task_id=task.task_id,
            args={
                "requests": _members(task),
                "cell": task.cell_type.name,
                "batch": task.batch_size,
            },
        )
        energy = worker.device.energy
        if energy is not None and energy.frequency != self._frequency[worker_id]:
            # The governor re-clocked the device at this batch boundary; the
            # scaled table names show which clock each kernel ran at.
            self._frequency[worker_id] = energy.frequency
            tables = sorted(t.name for t in worker.cost_model.tables().values())
            scope.instant(
                ev.DVFS_FREQUENCY, ev.SCHED, device_id=worker_id,
                args={"frequency": energy.frequency, "tables": tables},
            )

    def on_task_done(self, task) -> None:
        self._task_span(task, ev.COMPUTE)

    def on_task_failed(self, task, reason: str, retry_delay: Optional[float]) -> None:
        if reason == "device_lost":
            # The kernel never retired (the device's busy total is clipped
            # at the death instant): no execution span, an instant marks it.
            self.scope.instant(
                ev.TASK_DEVICE_LOST, ev.RETRY,
                device_id=task.worker_id, task_id=task.task_id,
                args={"requests": _members(task)},
            )
        else:
            # A kernel fault is detected at retire time: the device time was
            # consumed, but by a failed attempt — charge it to retry.
            self._task_span(task, ev.RETRY)
        if retry_delay is not None:
            live = list(dict.fromkeys(_members(task, live_only=True)))
            self.scope.span(
                ev.RETRY_BACKOFF, ev.RETRY, self._now(), retry_delay,
                task_id=task.task_id,
                args={"requests": live, "attempt": task.attempt + 1},
            )

    def _task_span(self, task, cat: str) -> None:
        """One span per task execution, ending now (its retire time): the
        device ran it back-to-back on a FIFO stream.  The gather/migration
        share rides in args for the critical-path split."""
        duration = task.duration or 0.0
        self.scope.span(
            ev.TASK, cat, self._now() - duration, duration,
            device_id=task.worker_id, task_id=task.task_id,
            args={
                "requests": _members(task),
                "gather": task.gather_time,
                "migration": task.migration_time,
                "cell": task.cell_type.name,
                "batch": task.batch_size,
                "attempt": task.attempt,
            },
        )

    def on_evict(self, request, evicted: int) -> None:
        request_id = request.request_id
        self.scope.instant(
            ev.SCHED_EVICT, ev.SCHED, request_id=request_id, args={"evicted": evicted}
        )
        if not request.terminal:  # a preemption: it re-enters after a backoff
            self.scope.instant(
                ev.REQUEST_RESTARTED, ev.LIFECYCLE, request_id=request_id,
                args={"restarts": request.restarts},
            )

    def on_terminal(self, request) -> None:
        reason = request.cancel_reason
        self.scope.instant(
            _TERMINAL_EVENT[request.state.value], ev.LIFECYCLE,
            request_id=request.request_id,
            args=None if reason is None else {"reason": reason},
        )

    def on_device_lost(self, worker) -> None:
        self.scope.instant(ev.DEVICE_FAILED, ev.LIFECYCLE, device_id=worker.worker_id)
