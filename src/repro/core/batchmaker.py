"""BatchMaker server facade.

Wraps the manager pipeline behind the common :class:`InferenceServer`
interface so the load generator and the experiment harness can drive
BatchMaker and the baselines identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.config import BatchingConfig
from repro.core.manager import Manager
from repro.core.request import InferenceRequest
from repro.extension import EngineExtension
from repro.gpu.costmodel import CostModel
from repro.gpu.energy import EnergyAccounting
from repro.gpu.memory import MemoryAccounting
from repro.server import InferenceServer, ensure_loop
from repro.sim.events import EventLoop
from repro.trace import events as trace_events
from repro.trace.tracer import EngineTracer

if TYPE_CHECKING:  # avoids a circular import (models depend on core)
    from repro.models.base import Model


class BatchMakerServer(InferenceServer, EngineExtension):
    """The cellular-batching inference server.

    The server is itself an extension of its engine (DESIGN.md §22): its
    ``on_terminal`` hook is ``InferenceServer._file``, which files each
    request under ``finished`` / ``timed_out`` / ``rejected`` (§43);
    ``memory`` / ``energy`` hold the extension behind the optional
    subsystem of that name (or None).

    Parameters
    ----------
    model:
        The servable model (cell types + unfold function).
    config:
        Batching configuration; default is max batch 512, MaxTasksToSubmit 5
        (the paper's defaults for the LSTM experiments).
    num_gpus:
        Number of workers/devices (the paper evaluates 1, 2 and 4).
    cost_model:
        Latency tables per cell type; defaults to the model's own calibrated
        tables.
    real_compute:
        When True, tasks actually run their NumPy cells and finished
        requests carry ``result`` values.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injecting kernel
        failures, stragglers and device losses (chaos testing).
    sla:
        Optional :class:`~repro.faults.SLAConfig`: default deadlines,
        retry/backoff policy and load shedding.  Both default to None,
        in which case the server is bit-identical to the pre-fault engine.
    policies:
        Optional :class:`~repro.policies.PolicyBundle` overriding the
        scheduling policies (queue priority, placement, batch formation).
        Defaults to the paper's Algorithm 1 (pinned placement).
    memory:
        Optional :class:`~repro.gpu.MemorySpec`: per-device byte capacity,
        weight residency and per-subgraph state footprint (DESIGN.md §15).
        None (the default) keeps the time-only device model bit-identical
        to the pre-memory engine.
    energy:
        Optional :class:`~repro.gpu.EnergySpec`: per-device joule
        accounting (idle + active power) and the DVFS governor over the
        spec's frequency states (DESIGN.md §17).  None (the default) keeps
        the energy-blind engine bit-identical.
    """

    def __init__(
        self,
        model: Model,
        config: Optional[BatchingConfig] = None,
        num_gpus: int = 1,
        cost_model: Optional[CostModel] = None,
        loop: Optional[EventLoop] = None,
        real_compute: bool = False,
        name: str = "BatchMaker",
        fault_plan=None,
        sla=None,
        policies=None,
        memory=None,
        energy=None,
    ):
        super().__init__(ensure_loop(loop), name)
        if cost_model is None:
            cost_model = model.default_cost_model()
        self.model = model
        self.config = config if config is not None else BatchingConfig.with_max_batch(512)
        self.memory = MemoryAccounting(memory) if memory is not None else None
        self.energy = EnergyAccounting(energy) if energy is not None else None
        self.manager = Manager(
            loop=self.loop,
            model=model,
            config=self.config,
            cost_model=cost_model,
            num_workers=num_gpus,
            real_compute=real_compute,
            fault_plan=fault_plan,
            sla=sla,
            policies=policies,
            extensions=[e for e in (self.energy, self.memory, self) if e is not None],
        )
        self.policies = self.manager.policies
        self._tracer = None
        self._autotrace()

    def _apply_trace_scope(self, scope) -> None:
        """(Re)place the engine's tracer extension; the arrival instant
        is recorded in ``_accept`` below."""
        if self._tracer is not None:
            self.manager.uninstall(self._tracer)
            self._tracer = None
        if scope is not None:
            self._tracer = EngineTracer(scope)
            self.manager.install(self._tracer)

    on_terminal = InferenceServer._file

    def _accept(self, request: InferenceRequest) -> None:
        if self._trace is not None:
            self._trace.instant(
                trace_events.REQUEST_ARRIVAL,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )
        self.manager.submit_request(request)

    # -- stats used by the experiment harness --------------------------------

    def stats(self):
        """A :class:`~repro.core.stats.ServerStats` snapshot (see its
        ``report()`` for a human-readable summary)."""
        from repro.core.stats import ServerStats

        return ServerStats(self)

    def tasks_submitted(self) -> int:
        return self.manager.scheduler.tasks_submitted

    def mean_batch_size(self) -> float:
        return self.manager.scheduler.mean_batch_size()

    def fault_counters(self):
        """The manager's :class:`~repro.metrics.FaultCounters`."""
        return self.manager.fault_counters

    def energy_joules(self) -> float:
        """Integrated fleet energy so far (0.0 without an energy spec)."""
        return self.energy.total_joules() if self.energy is not None else 0.0
