"""Request lifecycle and timing record.

A request's latency decomposes exactly as the paper measures it in §7.3:
*queuing time* (arrival -> first cell starts executing) and *computation
time* (first execution -> result returned).  Those two CDFs are Figure 9.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # cell_graph raises PayloadError: it imports this module
    from repro.core.cell_graph import CellGraph


class RequestState(enum.Enum):
    PENDING = "pending"        # arrived, not yet executing
    RUNNING = "running"        # at least one cell executed
    FINISHED = "finished"      # last cell done, result returned
    TIMED_OUT = "timed_out"    # deadline expired or failure budget exhausted
    REJECTED = "rejected"      # refused at admission (shed, or a bad payload)


# States a request can never leave; every request reaches exactly one.
TERMINAL_STATES = frozenset(
    {RequestState.FINISHED, RequestState.TIMED_OUT, RequestState.REJECTED}
)

# A request whose payload its model refused is rejected with the reason
# "bad_payload: <the refusal>".
BAD_PAYLOAD = "bad_payload"


class PayloadError(ValueError):
    """A model refused a request's payload, naming the field (raised by
    ``Model.unfold``; the engine rejects the request)."""


class InferenceRequest:
    """One inference request and, while it is served, its unfolded cell
    graph.  The engine drops ``graph`` and ``subgraphs`` when the request
    turns terminal (DESIGN.md §24); what stays is this record.  Slotted:
    a record per arrival, and no ``__dict__`` beside it (DESIGN.md §26).
    ``phase_steps`` is the padded baseline's per-phase step counts, set
    only there."""

    __slots__ = (
        "request_id",
        "payload",
        "arrival_time",
        "graph",
        "subgraphs",
        "state",
        "terminal",
        "start_time",
        "finish_time",
        "deadline",
        "terminal_time",
        "cancel_reason",
        "retries",
        "restarts",
        "_timeout_event",
        "remaining_nodes",
        "result",
        "phase_steps",
    )

    def __init__(self, request_id: int, payload: Any, arrival_time: float):
        self.request_id = request_id
        self.payload = payload
        self.arrival_time = arrival_time
        self.graph: Optional[CellGraph] = None
        self.subgraphs: dict = {}  # subgraph_id -> Subgraph, set by the processor
        self.state = RequestState.PENDING
        # True once ``state`` is one of ``TERMINAL_STATES``: set by the one
        # transition into them, read per completed cell.
        self.terminal = False

        # Timing (seconds; virtual or wall clock depending on the server).
        self.start_time: Optional[float] = None   # first cell began executing
        self.finish_time: Optional[float] = None  # result returned

        # SLA state (all None/zero unless the server enforces deadlines).
        self.deadline: Optional[float] = None     # absolute cut-off time
        self.terminal_time: Optional[float] = None  # when a terminal state hit
        self.cancel_reason: Optional[str] = None  # "deadline", "retries_exhausted", ...
        self.retries = 0                          # task retries touching this request
        self.restarts = 0                         # evict-and-restart preemptions
        self._timeout_event = None                # loop Event handle, if armed

        # Completion bookkeeping maintained by the request processor.
        self.remaining_nodes = 0

        self.result: Optional[List[Any]] = None

    # -- lifecycle transitions (called by the engine) -----------------------

    def mark_started(self, now: float) -> None:
        # A request OOM-cancelled at reservation time is still carried in
        # the launching task's entries; starting must not resurrect it.
        if self.start_time is None and self.state is RequestState.PENDING:
            self.start_time = now
            self.state = RequestState.RUNNING

    def _enter_terminal(self, state: RequestState, now: float) -> None:
        if self.terminal:
            raise RuntimeError(
                f"request {self.request_id} terminal state set twice: "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state
        self.terminal = True
        self.terminal_time = now

    def mark_finished(self, now: float) -> None:
        self._enter_terminal(RequestState.FINISHED, now)
        self.finish_time = now

    def mark_timed_out(self, now: float, reason: str = "deadline") -> None:
        self._enter_terminal(RequestState.TIMED_OUT, now)
        self.cancel_reason = reason

    def mark_rejected(self, now: float, reason: str = "load_shed") -> None:
        self._enter_terminal(RequestState.REJECTED, now)
        self.cancel_reason = reason

    # -- metrics -------------------------------------------------------------

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time

    @property
    def queuing_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def computation_time(self) -> Optional[float]:
        if self.finish_time is None or self.start_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:
        return (
            f"<InferenceRequest {self.request_id} {self.state.value} "
            f"arrival={self.arrival_time:.6f}>"
        )
