"""SLA machinery: deadlines, retry/backoff policy, load shedding.

These are the knobs the manager reads when it reacts to injected (or, in a
real deployment, actual) faults.  Everything defaults to "off": a server
built without an :class:`SLAConfig` behaves exactly like the pre-fault
engine — no timers are scheduled, no admission check runs, and a failed
task is retried with the default policy only when a fault plan is present
to fail it in the first place.
"""

from __future__ import annotations

from typing import Optional

from repro.spec import Spec

#: Each retry waits this many times longer than the one before.
BACKOFF_FACTOR = 2.0


class RetryPolicy(Spec):
    """Batch-level retry with exponential backoff.

    A failed task is re-submitted after ``backoff_base * BACKOFF_FACTOR**attempt``
    seconds (attempt 0 = first retry), at most ``max_retries`` times; after
    that every surviving request in the task is cancelled with a terminal
    timed-out status ("retries exhausted" — the request's failure budget is
    an SLA resource just like its deadline).
    """

    max_retries: int = 3
    backoff_base: float = 200e-6

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        self.max_retries = int(self.max_retries)
        self.backoff_base = float(self.backoff_base)

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (attempt counts the
        retries already performed)."""
        return self.backoff_base * BACKOFF_FACTOR ** attempt


class SLAConfig(Spec):
    """Per-server service-level agreement.

    Parameters
    ----------
    default_deadline:
        Relative deadline (seconds from arrival) applied to every request
        that does not carry its own; ``None`` means requests without an
        explicit deadline never time out.
    max_queue_delay:
        Load-shedding threshold: a new arrival is rejected (terminal
        REJECTED status, never enters the pipeline) when the projected
        queueing delay — device backlog plus a running estimate of the
        drain time of the scheduler's ready nodes — exceeds this bound.
        ``None`` disables shedding.
    retry:
        The :class:`RetryPolicy` for failed tasks.
    max_hold:
        Upper bound (seconds) on the cumulative delay slack-aware batch
        formation (:class:`~repro.policies.LazyKickPolicy`) may add to any
        one request, measured from its arrival — slack beyond this is
        never spent waiting; ``None`` lets the policy use its default, and
        the field is inert unless the server runs the lazy-kick formation.
    """

    default_deadline: Optional[float] = None
    max_queue_delay: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    max_hold: Optional[float] = None

    def __post_init__(self):
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        if self.max_queue_delay is not None and self.max_queue_delay <= 0:
            raise ValueError("max_queue_delay must be positive")
        if self.max_hold is not None and self.max_hold <= 0:
            raise ValueError("max_hold must be positive")
        if self.retry is None:
            self.retry = RetryPolicy()
