"""Values only tests compare the engine against, computed from public state.

Each was a method in ``src/`` with no caller outside tests until DESIGN.md
§28 moved it here.
"""

from repro.gpu.energy import HeadroomGovernor
from repro.gpu.memory import MemoryModel
from repro.sim.events import EventLoop


def demand(governor: HeadroomGovernor) -> float:
    """The busy fraction the workload would produce at the top state: the
    governor's frequency-normalised utilization EWMA."""
    return governor._ewma.utilization


def release_request(memory: MemoryModel, request_id: int) -> int:
    """Free everything ``request_id`` holds; returns the bytes freed (0 for
    a request with no reservation)."""
    held = memory.holds(request_id)
    if held:
        memory.release(request_id, held)
    return held


def recount_pending(loop: EventLoop) -> int:
    """``loop.pending()`` by a scan of the heap: the events not cancelled."""
    return sum(1 for _, _, event in loop._heap if not event.cancelled)
