"""SLA-aware batch formation: the lazy kick.

The paper's ``FormBatchedTask`` kicks a batch the moment a worker goes
idle, even if only a handful of nodes are ready — minimising latency but
wasting per-batch overhead at moderate load.  LazyBatching (PAPERS.md)
observes that requests with SLO headroom can afford to wait for a denser
batch: :class:`LazyKickPolicy` delays a kick while *every* member of the
planned batch still has slack

    slack = deadline - now - predicted remaining service time

and kicks immediately once any member's slack falls below a safety
margin (or the batch is full — a full batch gains nothing by waiting).
Patience is additionally capped at ``max_hold`` seconds of cumulative
added delay per request (anchored to its arrival), so abundant slack is
spent sparingly instead of burned whole on the first dense batch.

The policy plans through the paper formation, so a kicked plan is
bit-identical to what the paper policy would have formed at that instant;
the only new behaviour is *when* the kick happens.  Declining a kick
returns an empty plan (the scheduler treats it as "nothing to submit") and
arms a wake-up timer at the earliest slack expiry, which re-pokes the idle
workers through the engine's coalesced dispatch (``Manager.wake``) — so a
held batch is kicked exactly when its tightest member runs out of
headroom, without polling.

The predicted remaining service time is ``remaining_nodes`` times the
manager's per-node service-time EWMA (``Manager.node_time_estimate``),
the engine's one running estimate of how long a node takes.

The policy is an :class:`~repro.extension.EngineExtension`: the manager
installs it, and ``attach`` switches it on when the engine carries an
:class:`~repro.faults.SLAConfig`.
Without an engine or an SLA, ``form`` delegates straight to the paper
policy, and a server running this formation is fingerprint-bit-identical
to the paper default (``tests/test_slo_policies.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

from repro.extension import EngineExtension
from repro.policies.base import BatchFormationPolicy, Plan
from repro.policies.defaults import PaperBatchFormation

if TYPE_CHECKING:
    from repro.core.scheduler import CellTypeQueue
    from repro.core.worker import Worker

# Slack safety margin and default maximum hold (seconds; ``SLAConfig``'s
# ``max_hold`` overrides the latter).  The margin absorbs estimate error;
# the hold bound caps the cumulative delay any request (with or without a
# deadline) can accrue from holds, measured from its arrival.
KICK_MARGIN = 500e-6
DEFAULT_MAX_HOLD = 1e-3


class LazyKickPolicy(BatchFormationPolicy, EngineExtension):
    """Slack-based kick delay over the paper's batch formation."""

    name = "lazy_kick"

    def __init__(self):
        self.inner = PaperBatchFormation()
        # Set from the engine's SLA in ``attach``.
        self.max_hold: Optional[float] = None
        self._manager = None
        self._wake = None
        self._wake_at = math.inf
        # Decision counters (observability + the conformance suite).
        self.kicks = 0
        self.holds = 0
        self.forced_full = 0
        self.wakes = 0
        # request_id -> real deadline at the time the request was last held
        # with headroom; the no-late-dispatch conformance assertion reads
        # this after a run.
        self.held_requests: Dict[int, float] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, engine) -> None:
        """Lazy behaviour switches on only when the engine carries an SLA —
        without one there are no deadlines to reason about and the policy
        stays a pass-through."""
        sla = engine.sla
        if sla is None:
            return
        self._manager = engine
        self.max_hold = sla.max_hold if sla.max_hold is not None else DEFAULT_MAX_HOLD

    @property
    def active(self) -> bool:
        return self._manager is not None

    # -- formation -------------------------------------------------------------

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        plan = self.inner.form(queue, worker)
        manager = self._manager
        if manager is None or not plan:
            return plan
        batch_size = sum(count for _, count in plan)
        if batch_size >= queue.max_batch:
            # Full batch: waiting cannot make it denser.
            self.kicks += 1
            self.forced_full += 1
            return plan
        now = manager.loop.now()
        node_time = manager.node_time_estimate
        # Per member, the latest acceptable kick instant: its slack expiry
        # (deadline minus predicted remaining service minus the margin),
        # clipped to ``arrival + max_hold`` — abundant slack never buys a
        # request more than ``max_hold`` of *cumulative* added delay, since
        # the clip is anchored to arrival, not to this hold.
        kick_by = math.inf
        for sg, _ in plan:
            request = sg.request
            limit = request.arrival_time + self.max_hold
            if request.deadline is not None:
                remaining = request.remaining_nodes * node_time
                slack_limit = request.deadline - remaining - KICK_MARGIN
                if slack_limit < limit:
                    limit = slack_limit
            if limit < kick_by:
                kick_by = limit
        # Kick when the tightest member's patience is spent.  ``<=`` also
        # catches a horizon that rounds back to ``now`` — holding would
        # re-arm the same instant forever instead of advancing the clock.
        if kick_by <= now:
            self.kicks += 1
            return plan
        self.holds += 1
        for sg, _ in plan:
            request = sg.request
            if request.deadline is not None:
                self.held_requests[request.request_id] = request.deadline
        self._schedule_wake(kick_by)
        return []

    # -- wake-up timer ---------------------------------------------------------

    def _schedule_wake(self, when: float) -> None:
        wake = self._wake
        if wake is not None and not wake.fired:
            if self._wake_at <= when:
                return  # an earlier (or equal) wake already covers this hold
            wake.cancel()
        self._wake_at = when
        loop = self._manager.loop
        self._wake = loop.call_at(max(when, loop.now()), self._fire_wake)

    def _fire_wake(self) -> None:
        self._wake = None
        self._wake_at = math.inf
        self.wakes += 1
        # Coalesced end-of-timestamp dispatch.  ``wake`` kicks whatever the
        # workers hold (an arrival's kick waits for an idle worker): the
        # held batch waits for this wake-up, not for an arrival.
        self._manager.wake()

    def __repr__(self) -> str:
        return (
            f"<LazyKickPolicy active={self.active} kicks={self.kicks} "
            f"holds={self.holds} full={self.forced_full} wakes={self.wakes}>"
        )
