"""SLA machinery: deadlines, retry/backoff policy, load shedding.

These are the knobs the manager reads when it reacts to injected (or, in a
real deployment, actual) faults.  Everything defaults to "off": a server
built without an :class:`SLAConfig` behaves exactly like the pre-fault
engine — no timers are scheduled, no admission check runs, and a failed
task is retried with the default policy only when a fault plan is present
to fail it in the first place.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class RetryPolicy:
    """Batch-level retry with exponential backoff.

    A failed task is re-submitted after ``backoff_base * factor**attempt``
    seconds (attempt 0 = first retry), at most ``max_retries`` times; after
    that every surviving request in the task is cancelled with a terminal
    timed-out status ("retries exhausted" — the request's failure budget is
    an SLA resource just like its deadline).
    """

    def __init__(
        self,
        max_retries: int = 3,
        backoff_base: float = 200e-6,
        backoff_factor: float = 2.0,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (attempt counts the
        retries already performed)."""
        return self.backoff_base * self.backoff_factor ** attempt

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RetryPolicy":
        from repro.core.config import _reject_unknown_keys  # core imports us: late

        _reject_unknown_keys(
            "RetryPolicy", data, ("max_retries", "backoff_base", "backoff_factor")
        )
        return cls(
            max_retries=data.get("max_retries", 3),
            backoff_base=data.get("backoff_base", 200e-6),
            backoff_factor=data.get("backoff_factor", 2.0),
        )

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(max_retries={self.max_retries}, "
            f"backoff_base={self.backoff_base:g}, "
            f"backoff_factor={self.backoff_factor:g})"
        )


class SLAConfig:
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
    kick_margin:
        Slack safety margin (seconds) for slack-aware batch formation
        (:class:`~repro.policies.LazyKickPolicy`): a held batch is kicked
        once any member's slack falls to this margin.  ``None`` lets the
        policy use its default; the field is inert unless the server runs
        the lazy-kick formation.
    max_hold:
        Upper bound (seconds) on the cumulative delay lazy-kick may add
        to any one request, measured from its arrival — slack beyond this
        is never spent waiting; also inert without the policy.
    """

    def __init__(
        self,
        default_deadline: Optional[float] = None,
        max_queue_delay: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        kick_margin: Optional[float] = None,
        max_hold: Optional[float] = None,
    ):
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive")
        if max_queue_delay is not None and max_queue_delay <= 0:
            raise ValueError("max_queue_delay must be positive")
        if kick_margin is not None and kick_margin < 0:
            raise ValueError("kick_margin must be >= 0")
        if max_hold is not None and max_hold <= 0:
            raise ValueError("max_hold must be positive")
        self.default_deadline = default_deadline
        self.max_queue_delay = max_queue_delay
        self.retry = retry if retry is not None else RetryPolicy()
        self.kick_margin = kick_margin
        self.max_hold = max_hold

    def to_dict(self) -> Dict[str, Any]:
        """Serialisable form; backs the ``sla`` field on registry specs."""
        return {
            "default_deadline": self.default_deadline,
            "max_queue_delay": self.max_queue_delay,
            "retry": self.retry.to_dict(),
            "kick_margin": self.kick_margin,
            "max_hold": self.max_hold,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLAConfig":
        from repro.core.config import _reject_unknown_keys  # core imports us: late

        _reject_unknown_keys(
            "SLAConfig",
            data,
            ("default_deadline", "max_queue_delay", "retry", "kick_margin", "max_hold"),
        )
        retry = data.get("retry")
        return cls(
            default_deadline=data.get("default_deadline"),
            max_queue_delay=data.get("max_queue_delay"),
            retry=RetryPolicy.from_dict(retry) if retry is not None else None,
            kick_margin=data.get("kick_margin"),
            max_hold=data.get("max_hold"),
        )

    def __repr__(self) -> str:
        return (
            f"SLAConfig(default_deadline={self.default_deadline}, "
            f"max_queue_delay={self.max_queue_delay}, retry={self.retry}, "
            f"kick_margin={self.kick_margin}, max_hold={self.max_hold})"
        )
