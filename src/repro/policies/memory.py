"""Memory-aware batch formation and admission: serve within the budget.

The paper's formation kicks every eligible ready node; with a device
memory model (:mod:`repro.gpu.memory`) that can overcommit — each
subgraph landing on a device reserves hidden-state bytes that persist
until its request terminates, and a dynamic decode grows one subgraph per
output step.  :class:`MemoryAwareFormation` wraps the paper formation and
filters each plan against the target device's free bytes:

* members already resident on the device cost nothing and always pass;
* members that would newly reserve pass only while the plan fits in
  ``free()`` — the kick never overcommits;
* a *growing* request (one already holding state on the device) whose
  next step does not fit may **evict-and-restart** the cheapest victim —
  the live request with the least completed work that has nothing in
  flight (``MemoryAccounting.restart_request`` releases its state and
  re-enters it from scratch after the retry policy's backoff);
* everything else is **deferred**: left queued, retried at the next kick
  (a completion or arrival re-pokes the idle workers);
* when deferring can never make progress — nothing in flight anywhere,
  no pending event, no eligible device that fits — the member's request
  is OOM-cancelled rather than hung.

Arrivals are shed at the manager's front door (``"memory_shed"``, the
policy's ``admit`` gate) while every alive device's free memory sits below
the spec's ``admission_free_bytes`` threshold.

The policy is an :class:`~repro.extension.EngineExtension`: the manager
installs it, and ``attach`` switches it on when the engine carries a
:class:`~repro.gpu.memory.MemoryAccounting`; absent either, ``form``
delegates straight to the paper policy and a server running this
formation is fingerprint-bit-identical to the paper default
(``tests/test_memory_policies.py``) — the same differential-conformance
contract as :class:`~repro.policies.slo.LazyKickPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from repro.extension import EngineExtension
from repro.gpu.memory import MemoryAccounting
from repro.policies.base import BatchFormationPolicy, Plan
from repro.policies.defaults import PaperBatchFormation

if TYPE_CHECKING:
    from repro.core.request import InferenceRequest
    from repro.core.scheduler import CellTypeQueue
    from repro.core.subgraph import Subgraph
    from repro.core.worker import Worker


class MemoryAwareFormation(BatchFormationPolicy, EngineExtension):
    """Plan through the paper formation, then fit the plan to the budget."""

    name = "memory_aware"

    #: Re-poke cadence after a wholly-deferred round (see ``_arm_retry``).
    defer_retry = 1e-3

    def __init__(self):
        self.inner = PaperBatchFormation()
        self._manager = None
        self._memory: Optional[MemoryAccounting] = None
        self._shed_below: Optional[int] = None  # the admission threshold
        self._retry_armed = False
        # Decision counters (observability + the conformance suite).
        self.deferrals = 0
        self.evictions = 0
        self.oom_cancels = 0
        self.sheds = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, engine) -> None:
        """Memory awareness switches on only when the engine accounts
        device memory — without a budget to respect the policy stays a
        pass-through."""
        memory = next(
            (e for e in engine.extensions if isinstance(e, MemoryAccounting)), None
        )
        if memory is None:
            return
        self._manager = engine
        self._memory = memory
        self._shed_below = memory.spec.admission_free_bytes

    @property
    def active(self) -> bool:
        return self._manager is not None

    # -- admission (an extension gate of Manager.submit_request) -------------

    def admit(self, request: "InferenceRequest") -> Optional[str]:
        """Shed the arrival while *every* alive device's free memory is
        below the admission threshold — accepting it could only deepen the
        pressure the deferral/eviction machinery is already working off."""
        threshold = self._shed_below
        if threshold is None:
            return None
        for worker in self._manager.workers:
            if worker.alive and worker.device.memory.free() >= threshold:
                return None
        self.sheds += 1
        return "memory_shed"

    # -- formation -------------------------------------------------------------

    def form(self, queue: "CellTypeQueue", worker: "Worker") -> Plan:
        plan = self.inner.form(queue, worker)
        manager = self._manager
        if manager is None or not plan:
            return plan
        mem = worker.device.memory
        state_bytes = self._memory.spec.state_bytes
        kept: Plan = []
        kept_ids: Set[int] = set()
        earmarked = 0  # bytes the kept members will newly reserve
        deferred = False
        for sg, count in plan:
            request = sg.request
            if request.terminal or sg.owner is not queue:
                # Cancelled or evicted while we processed earlier members.
                continue
            need = 0 if sg.resident_on == worker.worker_id else state_bytes
            if mem.free() - earmarked >= need:
                kept.append((sg, count))
                kept_ids.add(request.request_id)
                earmarked += need
                continue
            # Hopeless: even with every other request's state released the
            # member would not fit — its footprint alone exceeds the device
            # (a decode longer than the budget allows).  Deferring would
            # hold its resident bytes forever and clog the device; triage
            # it now, exactly where the oblivious path would hit the wall.
            if mem.holds(request.request_id) + need > mem.capacity - mem.weight_bytes:
                self.oom_cancels += 1
                manager.fault_counters.oom_cancellations += 1
                manager.cancel_request(request, reason="oom")
                continue
            if mem.holds(request.request_id) > 0:
                # A growing request (dynamic decode mid-flight): evict the
                # cheapest victim rather than strand its resident state.
                # Only victims with *strictly less* completed work qualify
                # — the progress order makes eviction thrash-free (the
                # most-advanced requests always win, finish and release;
                # cycles of mutual preemption cannot form).
                progress = len(request.graph) - request.remaining_nodes
                if self._evict_until_fits(
                    mem,
                    earmarked + need,
                    kept_ids | {request.request_id},
                    max_progress=progress,
                ):
                    kept.append((sg, count))
                    kept_ids.add(request.request_id)
                    earmarked += need
                    continue
            if self._progress_impossible(worker, sg, need, bool(kept)):
                self.oom_cancels += 1
                manager.fault_counters.oom_cancellations += 1
                manager.cancel_request(request, reason="oom")
                continue
            self.deferrals += 1
            deferred = True
        if deferred and not kept:
            # A wholly-deferred round: the members wait for memory that only
            # a completion, cancellation or eviction can free — but every
            # pending event the deferral bet on may belong to *another*
            # server on a shared loop (cluster arrivals, sibling replicas)
            # and never re-poke this manager.  Liveness must not depend on
            # global quiescence, so arm a one-shot retry poke; a round that
            # keeps members needs none (its completions re-kick), and a
            # truly dead-end round re-checks with the loop drained, where
            # ``_progress_impossible`` triages.
            self._arm_retry()
        return kept

    # -- pressure responses ----------------------------------------------------

    def _arm_retry(self) -> None:
        """One retry poke at a time: re-runs the dispatch loop after
        ``defer_retry`` so deferred members are re-examined even when no
        event of this manager's own is coming.  Re-arms only through
        another wholly-deferred round, so a drained run stops cleanly."""
        if self._retry_armed:
            return
        self._retry_armed = True
        manager = self._manager

        def fire() -> None:
            self._retry_armed = False
            manager.wake()

        manager.loop.call_after(self.defer_retry, fire)

    def _evict_until_fits(
        self, mem, needed_free: int, protected: Set[int], max_progress: int
    ) -> bool:
        """Restart cheapest victims until ``mem.free() >= needed_free``.
        Only requests with fewer than ``max_progress`` completed nodes
        qualify (the thrash-free progress order).  Returns False (leaving
        any already-made evictions in place — their freed bytes still
        relieve pressure) when no victim remains."""
        while mem.free() < needed_free:
            victim = self._cheapest_victim(mem, protected, max_progress)
            if victim is None:
                return False
            if self._memory.restart_request(victim):
                self.evictions += 1
            # A restart past the retry budget cancelled the victim instead;
            # either way its state is released and the loop re-checks.
        return True

    def _cheapest_victim(
        self, mem, protected: Set[int], max_progress: int
    ) -> Optional["InferenceRequest"]:
        """The restartable request holding state on this device that loses
        the least completed work (< ``max_progress``), tie-broken by id
        (deterministic).  A request with any node in flight (including
        awaiting retry) is never a victim — its completions must land in
        the graph they started in."""
        best = None
        best_key = None
        for request in self._manager.processor.live_requests():
            if request.request_id in protected:
                continue
            if mem.holds(request.request_id) == 0:
                continue
            completed = len(request.graph) - request.remaining_nodes
            if completed >= max_progress:
                continue
            if any(sg.inflight for sg in request.subgraphs.values()):
                continue
            key = (completed, request.request_id)
            if best_key is None or key < best_key:
                best, best_key = request, key
        return best

    def _progress_impossible(
        self, worker: "Worker", sg: "Subgraph", need: int, kept_any: bool
    ) -> bool:
        """Deferral is safe while *something* can still free memory or
        place the member: this plan's own members, any in-flight task, any
        pending loop event (completion signal, retry, restart, deadline),
        or another eligible device with room.  With none of those, holding
        the member queued would hang the drain — cancel instead."""
        if kept_any:
            return False
        manager = self._manager
        if manager.loop.pending() > 0:
            return False
        for w in manager.workers:
            if not w.alive:
                continue
            if w.outstanding > 0:
                return False
            if sg.pinned is not None and sg.pinned != w.worker_id:
                continue
            mem = w.device.memory
            if mem is None or mem.free() >= need:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"<MemoryAwareFormation active={self.active} "
            f"deferrals={self.deferrals} evictions={self.evictions} "
            f"oom_cancels={self.oom_cancels} sheds={self.sheds}>"
        )
