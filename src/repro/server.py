"""Common serving interface shared by BatchMaker and the baseline systems.

Every server — BatchMaker (:mod:`repro.core`), the padding/bucketing server
(:mod:`repro.baselines.padded`), the dynamic graph-merge server
(:mod:`repro.baselines.fold`) and the fixed-structure ideal
(:mod:`repro.baselines.ideal`) — accepts requests through the same
``submit`` call against the same event loop, so the load generator and the
experiment harness treat them interchangeably.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional

from repro.core.request import InferenceRequest, RequestState
from repro.sim.events import Event, EventLoop


def ensure_loop(loop: Optional[EventLoop]) -> EventLoop:
    """The ``loop if loop is not None else EventLoop()`` default every
    server constructor used to spell out."""
    return loop if loop is not None else EventLoop()


class DeferredKick:
    """Coalesced end-of-timestamp dispatch.

    Both BatchMaker's manager and the graph-batching baselines defer their
    dispatch loop to the end of the current timestamp so that
    simultaneously-arriving requests can be batched together instead of
    the first one grabbing an idle device alone.  ``kick()`` arranges one
    ``fire`` at the current time via ``call_soon`` — further kicks before
    it runs coalesce into that single firing.  The baselines kick on every
    arrival; the manager kicks for an arrival only while some worker is
    idle, since a busy worker is scheduled by its own completion
    (DESIGN.md §40), and on every ``Manager.wake``.
    """

    __slots__ = ("loop", "fn", "_pending")

    def __init__(self, loop: EventLoop, fn: Callable[[], None]):
        self.loop = loop
        self.fn = fn
        self._pending = False

    def kick(self) -> None:
        if not self._pending:
            self._pending = True
            self.loop.call_soon(self.fire)

    def fire(self) -> None:
        """Run the dispatch function now (also the coalesced callback)."""
        self._pending = False
        self.fn()


class InferenceServer:
    """Abstract server: payloads in, finished :class:`InferenceRequest`\\ s out."""

    def __init__(self, loop: EventLoop, name: str):
        self.loop = loop
        self.name = name
        self.finished: List[InferenceRequest] = []
        # Requests that reached a non-success terminal state.  Only servers
        # with SLA enforcement (BatchMaker) populate these; the baselines
        # run every request to completion.
        self.timed_out: List[InferenceRequest] = []
        self.rejected: List[InferenceRequest] = []
        # Handed every request ``_file`` files, once, as it is filed: None
        # in simulation; the live front door's fold (DESIGN.md §43).
        self.on_outcome: Optional[Callable[[InferenceRequest], None]] = None
        self._next_request_id = 0
        # Submitted, not yet arrived: ``(time, seq, request)``, ``seq``
        # reserved from the loop at submit.  Only the earliest is armed on
        # the loop, under its own key, so every arrival fires exactly where
        # an event scheduled at its submit would have (DESIGN.md §26, §39).
        self._arrivals: List[tuple] = []
        self._armed: Optional[Event] = None
        self._arrive = self._next_arrival
        # Tracing (repro.trace): a recorder plus this server's scope on it.
        # None by default — instrumentation sites guard on the scope, so an
        # untraced server pays one attribute load per site and records
        # nothing (DESIGN.md §12).
        self.trace_recorder = None
        self._trace = None

    # -- to implement --------------------------------------------------------

    def _accept(self, request: InferenceRequest) -> None:
        """Called at the request's arrival time; begin serving it."""
        raise NotImplementedError

    # -- tracing ---------------------------------------------------------------

    def attach_trace(self, recorder, replica_id: Optional[int] = None) -> None:
        """Record this server's events into ``recorder``.

        ``replica_id`` stamps every event this server emits (the cluster
        re-attaches each replica's engine under its replica id; standalone
        servers stay at None).  Passing ``recorder=None`` detaches.
        Attaching never touches the event loop, so a traced run stays
        bit-identical to an untraced one.
        """
        self.trace_recorder = recorder
        self._trace = recorder.scope(replica_id) if recorder is not None else None
        self._apply_trace_scope(self._trace)

    def _apply_trace_scope(self, scope) -> None:
        """Push the scope into owned components (overridden by servers that
        delegate to a manager/scheduler)."""

    def _autotrace(self) -> None:
        """Auto-attach to the active trace session, if any (called at the
        end of each concrete server's ``__init__``).  Recorders are shared
        per event loop, so a cluster and its replicas coalesce into one."""
        from repro.trace.session import active_session

        session = active_session()
        if session is not None:
            self.attach_trace(session.recorder_for(self.loop))

    # -- shared machinery ------------------------------------------------------

    def submit(
        self,
        payload: Any,
        arrival_time: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> InferenceRequest:
        """Register a request to arrive at ``arrival_time`` (default: now).

        ``deadline`` is relative to the arrival time and must be positive
        and finite; a request that has not finished by then is cancelled
        with a terminal TIMED_OUT status (servers without SLA machinery
        ignore it).
        """
        # Read the clock once: under a wall clock now() moves between two
        # reads, so re-reading would reject every explicit arrival time.
        now = self.loop.now()
        when = now if arrival_time is None else arrival_time
        if not now <= when < math.inf:  # NaN fails every comparison
            if not math.isfinite(when):
                raise ValueError(f"arrival time must be finite, got {when}")
            raise ValueError(
                f"arrival time {when} is in the past (now={now})"
            )
        if deadline is not None and not 0 < deadline < math.inf:
            raise ValueError(f"deadline must be positive and finite, got {deadline}")
        request = InferenceRequest(self._next_request_id, payload, when)
        if deadline is not None:
            request.deadline = when + deadline
        self._next_request_id += 1
        arrivals = self._arrivals
        entry = (when, self.loop.reserve_seq(), request)
        heapq.heappush(arrivals, entry)
        if arrivals[0] is entry:  # the new earliest: it takes the arming
            if self._armed is not None:
                self._armed.cancel()
            self._armed = self.loop.call_at(when, self._arrive, entry[1])
        return request

    def _next_arrival(self) -> None:
        """The armed arrival's callback (one bound method per server, no
        closure per request): accept the earliest submitted request and
        arm the next under its reserved key — before accepting, so a
        submit made while accepting sees the arming it may have to
        replace."""
        arrivals = self._arrivals
        request = heapq.heappop(arrivals)[2]
        if arrivals:
            when, seq, _ = arrivals[0]
            self._armed = self.loop.call_at(when, self._arrive, seq)
        else:
            self._armed = None
        self._accept(request)

    def terminal_requests(self) -> List[InferenceRequest]:
        """Every request that reached a terminal state, any status."""
        return self.finished + self.timed_out + self.rejected

    def _file(self, request: InferenceRequest) -> None:
        """The one place a terminal request is filed: under ``finished`` /
        ``timed_out`` / ``rejected`` by its state, then handed to
        ``on_outcome`` (DESIGN.md §43)."""
        state = request.state
        if state is RequestState.FINISHED:
            self.finished.append(request)
        elif state is RequestState.TIMED_OUT:
            self.timed_out.append(request)
        else:
            self.rejected.append(request)
        if self.on_outcome is not None:
            self.on_outcome(request)

    def _finish_request(self, request: InferenceRequest) -> None:
        request.mark_finished(self.loop.now())
        self._file(request)
        if self._trace is not None:
            from repro.trace import events as trace_events

            self._trace.instant(
                trace_events.REQUEST_FINISHED,
                trace_events.LIFECYCLE,
                request_id=request.request_id,
            )

    def drain(self, until: Optional[float] = None) -> None:
        """Run the event loop until no work remains (or ``until``)."""
        self.loop.run(until=until)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} finished={len(self.finished)}>"
