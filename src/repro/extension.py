"""The engine's one extension seam: ordered lifecycle hooks.

Everything that observes or steers a :class:`~repro.core.manager.Manager`
without being part of Figure 6 — memory accounting, energy + DVFS, the
lazy kick, tracing, the server's terminal lists, a cluster replica, a
device-attached model of your own — subclasses :class:`EngineExtension`,
overrides the hooks it needs and goes through ``Manager.install``.  Per
hook the manager keeps the bound methods that are *actually overridden*,
in installation order; a plain engine loops over empty tuples (DESIGN.md
§22).  Nothing of the package is imported here, so policies, device models
and the trace layer subclass without an import cycle through ``repro.core``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

#: The lifecycle hooks, in the order a request meets them.
HOOKS = (
    "admit", "on_task_submit", "on_task_done", "on_task_failed",
    "on_evict", "on_terminal", "on_device_lost",
)


class EngineExtension:
    """Base class: every hook is a no-op the manager never calls."""

    def attach(self, engine) -> None:
        """Installed on ``engine`` (once, before it serves): wire up."""

    def admit(self, request) -> Optional[str]:
        """An arrival passed the built-in gates: return a reject reason to
        shed it (later gates are then skipped), None to let it through."""

    def on_task_submit(self, task, worker) -> None:
        """``task`` is about to launch on ``worker``: a fresh batch
        (``task.attempt == 0``) or a retry."""

    def on_task_done(self, task) -> None:
        """``task`` retired cleanly; dependencies are not yet updated."""

    def on_task_failed(self, task, reason: str, retry_delay: Optional[float]) -> None:
        """``task`` failed (``"kernel_fault"`` / ``"device_lost"``): it is
        resubmitted after ``retry_delay`` seconds, or written off (None)."""

    def on_evict(self, request, evicted: int) -> None:
        """``evicted`` queued subgraphs of ``request`` left the scheduler:
        a cancellation (it is already terminal) or a preemption."""

    def on_terminal(self, request) -> None:
        """``request`` reached FINISHED, TIMED_OUT or REJECTED."""

    def on_device_lost(self, worker) -> None:
        """``worker``'s device is dying: fired before its in-flight tasks
        fail and before its device models reset."""


def bound_hooks(extensions: Iterable[EngineExtension], hook: str) -> Tuple:
    """The bound ``hook`` methods that override the base no-op, in order."""
    base = getattr(EngineExtension, hook)
    return tuple(
        getattr(e, hook) for e in extensions if getattr(type(e), hook) is not base
    )
