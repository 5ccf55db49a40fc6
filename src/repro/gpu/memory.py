"""Device memory model: capacity, weight residency, per-request state.

The paper keeps each request's hidden state resident on the GPU between
cells; this module gives that state a *size*.  A :class:`MemoryModel`
hangs off a :class:`~repro.gpu.device.GPUDevice` (``device.memory``,
``None`` by default so the time-only model is untouched) and accounts
three pools against a byte capacity:

* **weights** — per-cell-type parameter residency, loaded once at server
  construction and held for the device's lifetime;
* **state** — per-request hidden/cell vectors, one reservation per live
  subgraph resident on the device (dynamic decode grows one subgraph per
  decode step, so the footprint grows with the output length);
* **free** — what a kick may still claim.

``reserve`` *refuses* (returns ``False``) rather than overcommits, so
``reserved <= capacity`` holds by construction; callers decide whether a
refusal means deferring, evicting a victim, or cancelling with an OOM.
Releases are strict — freeing bytes that were never reserved raises —
which is what lets the chaos suites assert that accounting telescopes to
zero on every request's terminal state.

:class:`MemorySpec` is the declarative, JSON-round-trippable description
(`capacity`, per-subgraph `state_bytes`, per-cell-type `weights`, and the
front-door `admission_free_bytes` shed threshold) carried on
``ServerSpec``/``ClusterSpec``; :class:`MemoryAccounting` is the engine
extension (DESIGN.md §22) that keeps a model on every device in step with
the request lifecycle.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.extension import EngineExtension
from repro.spec import Spec

#: Hidden + cell vector at h=1024 fp32 — the natural per-subgraph state
#: footprint (mirrors ``PlacementPolicy.HIDDEN_STATE_BYTES``).
DEFAULT_STATE_BYTES = 2 * 1024 * 4


class MemorySpec(Spec):
    """Declarative memory budget for a server (or a whole cluster).

    Plain data, JSON round-trippable, compared by value (and so, like every
    config value, not hashable).  ``capacity`` is bytes per device;
    ``state_bytes`` is the footprint of one resident subgraph's hidden
    state; ``weights`` maps cell-type name -> resident parameter bytes
    (deducted up front on every device); ``admission_free_bytes``, when
    set, sheds arrivals at the front door while every candidate device
    has less free memory than the threshold.
    """

    capacity: int
    state_bytes: int = DEFAULT_STATE_BYTES
    weights: Optional[Dict[str, int]] = None
    admission_free_bytes: Optional[int] = None

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.state_bytes <= 0:
            raise ValueError("state_bytes must be positive")
        self.capacity = int(self.capacity)
        self.state_bytes = int(self.state_bytes)
        self.weights = dict(self.weights) if self.weights else {}
        for cell, nbytes in self.weights.items():
            if nbytes < 0:
                raise ValueError(f"negative weight bytes for {cell!r}")
        if self.admission_free_bytes is not None:
            self.admission_free_bytes = int(self.admission_free_bytes)

    def to_dict(self) -> dict:
        """The stored form leaves out ``weights`` when empty and
        ``admission_free_bytes`` when unset."""
        data = super().to_dict()
        if not self.weights:
            del data["weights"]
        if self.admission_free_bytes is None:
            del data["admission_free_bytes"]
        return data


class MemoryModel:
    """Byte accounting for one device: weights + per-request state.

    ``reserve`` never overcommits — it returns ``False`` when the claim
    would push ``reserved`` past ``capacity`` and the caller chooses the
    pressure response.  ``release`` is strict (underflow raises) so a
    leaked or double-freed reservation is caught at the fault site, not
    at drain.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.weight_bytes = 0
        self.weights: Dict[str, int] = {}
        self.state_reserved = 0
        self.peak_reserved = 0
        self._per_request: Dict[int, int] = {}

    @classmethod
    def from_spec(cls, spec: MemorySpec) -> "MemoryModel":
        model = cls(spec.capacity)
        for cell, nbytes in spec.weights.items():
            model.load_weights(cell, nbytes)
        return model

    # -- weights -----------------------------------------------------------

    def load_weights(self, cell_type: str, nbytes: int) -> None:
        """Make ``cell_type``'s parameters resident for the device's
        lifetime.  A budget too small for the weights is a config error,
        not back-pressure, so overflow raises."""
        if nbytes < 0:
            raise ValueError("weight bytes must be non-negative")
        prev = self.weights.get(cell_type, 0)
        new_total = self.weight_bytes - prev + nbytes
        if new_total + self.state_reserved > self.capacity:
            raise ValueError(
                f"weights for {cell_type!r} ({nbytes} B) do not fit: "
                f"{new_total + self.state_reserved} > capacity {self.capacity}"
            )
        self.weights[cell_type] = nbytes
        self.weight_bytes = new_total
        self.peak_reserved = max(self.peak_reserved, self.reserved)

    # -- per-request state -------------------------------------------------

    def reserve(self, request_id: int, nbytes: int) -> bool:
        """Claim ``nbytes`` of state for ``request_id``; refuses (returns
        ``False``, no partial effect) when the claim would overcommit."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.reserved + nbytes > self.capacity:
            return False
        self.state_reserved += nbytes
        self._per_request[request_id] = self._per_request.get(request_id, 0) + nbytes
        self.peak_reserved = max(self.peak_reserved, self.reserved)
        return True

    def release(self, request_id: int, nbytes: int) -> None:
        """Return ``nbytes`` of ``request_id``'s state; strict."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        held = self._per_request.get(request_id, 0)
        if nbytes > held:
            raise ValueError(
                f"release underflow for request {request_id}: "
                f"{nbytes} > {held} reserved"
            )
        if nbytes == held:
            self._per_request.pop(request_id, None)
        else:
            self._per_request[request_id] = held - nbytes
        self.state_reserved -= nbytes

    def holds(self, request_id: int) -> int:
        return self._per_request.get(request_id, 0)

    def reset(self) -> None:
        """Device death: all resident state is gone (weights included —
        the device can never serve again)."""
        self.state_reserved = 0
        self._per_request.clear()
        self.weight_bytes = 0
        self.weights.clear()

    # -- introspection -----------------------------------------------------

    @property
    def reserved(self) -> int:
        return self.weight_bytes + self.state_reserved

    def free(self) -> int:
        return self.capacity - self.reserved

    def live_requests(self) -> int:
        return len(self._per_request)

    def __repr__(self) -> str:
        return (
            f"<MemoryModel {self.reserved}/{self.capacity} B reserved "
            f"({self.weight_bytes} weights, {self.state_reserved} state, "
            f"{len(self._per_request)} requests)>"
        )


class MemoryAccounting(EngineExtension):
    """Per-device byte accounting for one engine (DESIGN.md §15): reserves
    hidden-state bytes where each subgraph lands, releases them on every
    terminal state and preemption so the books telescope to zero, and
    offers the pressure response a memory-aware formation drives,
    :meth:`restart_request`."""

    def __init__(self, spec: MemorySpec):
        self.spec = spec

    def attach(self, engine) -> None:
        self.engine = engine
        for worker in engine.workers:
            worker.device.memory = MemoryModel.from_spec(self.spec)

    def free_bytes(self) -> float:
        """Free bytes summed over the alive devices (the cluster's
        ``free_memory`` load metric; zero with none alive)."""
        return float(
            sum(w.device.memory.free() for w in self.engine.workers if w.alive)
        )

    def on_task_submit(self, task, worker) -> None:
        """Reserve state on ``worker`` for every subgraph the task lands
        there (kicks and retries alike).  A subgraph migrating between
        devices releases on the old one first; a reservation the device
        refuses (it would overcommit — possible when a memory-*oblivious*
        formation planned the batch) OOM-cancels the owning request.  The
        kernel still runs: the abort happens at launch."""
        mem = worker.device.memory
        state_bytes = self.spec.state_bytes
        for sg, _ in task.plan:
            request = sg.request
            if request.terminal or sg.resident_on == worker.worker_id:
                continue
            self._release(sg)
            if mem.reserve(request.request_id, state_bytes):
                sg.resident_on = worker.worker_id
                sg.resident_bytes = state_bytes
            else:
                self.engine.fault_counters.oom_cancellations += 1
                self.engine.cancel_request(request, reason="oom")

    def on_terminal(self, request) -> None:
        for sg in request.subgraphs.values():
            self._release(sg)
        # (Compared by value: importing RequestState here would close an
        # import cycle through repro.core.)
        if request.state.value == "timed_out":
            # The freed state can make deferred members fit, and a
            # cancellation may be the last event alive (the memory-aware
            # formation triages dead-end members from within a dispatch
            # round): re-run the dispatch loop or the drain hangs.
            self.engine.wake()

    def on_device_lost(self, worker) -> None:
        # The device's model resets wholesale: clear the residency markers
        # pointing at it, or a later release would underflow against it.
        for request in self.engine.processor.live_requests():
            for sg in request.subgraphs.values():
                if sg.resident_on == worker.worker_id:
                    sg.resident_on = None
                    sg.resident_bytes = 0

    def _release(self, sg) -> None:
        if sg.resident_on is not None:
            held = self.engine.workers[sg.resident_on].device.memory
            held.release(sg.request.request_id, sg.resident_bytes)
            sg.resident_on = None
            sg.resident_bytes = 0

    def restart_request(self, request) -> bool:
        """Evict-and-restart: preempt a non-terminal request under memory
        pressure — release its device state, unwind its queued subgraphs,
        re-enter it from scratch after the retry policy's backoff
        (``Manager.reenter_request``).  The caller (the ``memory_aware``
        formation) guarantees no node is in flight; restarts beyond the
        retry budget cancel terminally instead (``"oom"``).  Returns True
        when restarted, False when cancelled."""
        if request.terminal:
            return False
        for sg in request.subgraphs.values():
            if sg.inflight:
                raise ValueError(
                    f"cannot restart request {request.request_id}: "
                    f"subgraph {sg.subgraph_id} has nodes in flight"
                )
        engine = self.engine
        if request.restarts >= engine.retry.max_retries:
            engine.fault_counters.oom_cancellations += 1
            engine.cancel_request(request, reason="oom")
            return False
        request.restarts += 1
        engine.fault_counters.memory_evictions += 1
        engine.evict(request)
        for sg in request.subgraphs.values():
            self._release(sg)
        engine.processor.forget(request)
        engine.loop.call_after(
            engine.retry.backoff(request.restarts - 1),
            lambda: engine.reenter_request(request),
        )
        return True
