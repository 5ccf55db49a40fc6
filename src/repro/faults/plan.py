"""Deterministic fault plans.

A :class:`FaultPlan` decides, ahead of time or pseudo-randomly, which
batched tasks fail or straggle and which devices drop mid-run.  Every
decision is a pure function of ``(seed, task_id, attempt)`` — *not* of the
order in which the engine happens to ask — so the same plan yields
bit-identical fault timestamps under the scheduler and under the
brute-force scans of ``tests/oracles/bruteforce_scheduler.py`` (which
produce the same task stream by the equivalence suite), and across retries
of unrelated tasks.

With the default arguments the plan injects nothing, and a server built
without a plan skips the hooks entirely: fault injection disabled is
bit-identical to the pre-fault engine.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

# Fault kinds a task draw can produce.
KERNEL_FAIL = "fail"
STRAGGLER = "slow"


class TaskFault:
    """Outcome drawn for one (task, attempt) execution."""

    __slots__ = ("kind", "slowdown")

    def __init__(self, kind: str, slowdown: float = 1.0):
        if kind not in (KERNEL_FAIL, STRAGGLER):
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind == STRAGGLER and slowdown <= 1.0:
            raise ValueError("a straggler must slow the task down (> 1.0)")
        self.kind = kind
        self.slowdown = slowdown

    def __repr__(self) -> str:
        extra = f" x{self.slowdown:g}" if self.kind == STRAGGLER else ""
        return f"<TaskFault {self.kind}{extra}>"


class DeviceFailure:
    """One device dropping dead at a virtual time."""

    __slots__ = ("time", "device_id")

    def __init__(self, time: float, device_id: int):
        if time < 0:
            raise ValueError("device failure time must be non-negative")
        if device_id < 0:
            # A negative index would pick a device from the end of the list.
            raise ValueError(f"failure target id must be non-negative, got {device_id}")
        self.time = float(time)
        self.device_id = int(device_id)

    def __repr__(self) -> str:
        return f"<DeviceFailure gpu{self.device_id} at t={self.time:g}>"


def mix64(seed: int, *parts: int) -> int:
    """Stable integer mix of a draw key (no ``hash()``: that would vary
    with PYTHONHASHSEED and break cross-run determinism).

    Shared by the fault plan's per-task draws and the cluster router's
    tie-breaks — every pseudo-random decision in the repo that must be a
    pure function of its key goes through this mix.
    """
    x = (seed & 0xFFFFFFFFFFFFFFFF) ^ 0x9E3779B97F4A7C15
    for part in parts:
        x = (x * 6364136223846793005 + part + 1442695040888963407) % (1 << 64)
        x ^= x >> 31
    return x


def _mix(seed: int, task_id: int, attempt: int) -> int:
    return mix64(seed, task_id, attempt)


class FaultPlan:
    """Seedable schedule of kernel failures, stragglers and device losses.

    Parameters
    ----------
    seed:
        Base seed for the per-task draws.
    kernel_failure_rate:
        Probability that any one task execution's kernel fails (detected at
        the task's retire time; the device time is still consumed).
    straggler_rate:
        Probability that a task runs slow by ``straggler_multiplier``.
        Failure is drawn first; a task is never both.
    device_failures:
        Explicit ``(time, device_id)`` pairs (or :class:`DeviceFailure`
        instances) — devices die deterministically, not randomly, so chaos
        tests can place the loss exactly where it hurts.
    task_overrides:
        Explicit ``{(task_id, attempt): TaskFault or None}`` entries that
        take precedence over the random draws — pin a specific execution to
        fail (or force it healthy) regardless of the rates.
    """

    def __init__(
        self,
        seed: int = 0,
        kernel_failure_rate: float = 0.0,
        straggler_rate: float = 0.0,
        straggler_multiplier: float = 4.0,
        device_failures: Sequence = (),
        task_overrides: Optional[Dict[Tuple[int, int], Optional[TaskFault]]] = None,
    ):
        for name, rate in (
            ("kernel_failure_rate", kernel_failure_rate),
            ("straggler_rate", straggler_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if straggler_multiplier <= 1.0:
            raise ValueError("straggler_multiplier must be > 1.0")
        self.seed = int(seed)
        self.kernel_failure_rate = float(kernel_failure_rate)
        self.straggler_rate = float(straggler_rate)
        self.straggler_multiplier = float(straggler_multiplier)
        self._device_failures = tuple(
            sorted(
                (
                    f
                    if isinstance(f, DeviceFailure)
                    else DeviceFailure(f[0], f[1])
                    for f in device_failures
                ),
                key=lambda f: (f.time, f.device_id),
            )
        )
        self._task_overrides = dict(task_overrides or {})

    # -- queries (all pure) -------------------------------------------------

    def task_fault(self, task_id: int, attempt: int) -> Optional[TaskFault]:
        """The fault (if any) injected into execution ``attempt`` of task
        ``task_id``.  Attempt 0 is the original submission."""
        key = (task_id, attempt)
        if key in self._task_overrides:
            return self._task_overrides[key]
        if self.kernel_failure_rate == 0.0 and self.straggler_rate == 0.0:
            return None
        rng = random.Random(_mix(self.seed, task_id, attempt))
        roll = rng.random()
        if roll < self.kernel_failure_rate:
            return TaskFault(KERNEL_FAIL)
        if roll < self.kernel_failure_rate + self.straggler_rate:
            return TaskFault(STRAGGLER, self.straggler_multiplier)
        return None

    def device_failures(self) -> Tuple[DeviceFailure, ...]:
        return self._device_failures

    def injects_anything(self) -> bool:
        """False when this plan can never produce a fault (a no-op plan is
        exactly as cheap as no plan at all)."""
        return bool(
            self.kernel_failure_rate
            or self.straggler_rate
            or self._device_failures
            or any(f is not None for f in self._task_overrides.values())
        )

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} kernel_fail={self.kernel_failure_rate:g} "
            f"straggle={self.straggler_rate:g} "
            f"device_failures={len(self._device_failures)}>"
        )
