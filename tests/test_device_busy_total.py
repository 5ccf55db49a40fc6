"""The device keeps a clock and a busy total, no history (DESIGN.md §42).

The total is held to the interval list it replaced
(``tests/oracles/device_intervals.py``) on 1–3 GPUs under stragglers,
kernel faults and device loss: exactly after the drain and at each death,
within 1e-12 s at random instants mid-flight.  A second test runs ten
times the work and demands that no container the device holds outgrow the
work in flight on it.
"""

import random
from collections import deque

import pytest

from repro.faults import DeviceFailure, FaultPlan
from tests.chaos_helpers import assert_invariants, build_server, run_chaos
from tests.oracles.device_intervals import MID_FLIGHT_TOLERANCE, install

RATE = 3000.0

CASES = {
    "one-gpu": (1, {}),
    "stragglers": (2, dict(straggler_rate=0.2, straggler_multiplier=8.0)),
    "kernel-faults": (3, dict(kernel_failure_rate=0.05)),
    "device-loss": (
        2,
        dict(
            straggler_rate=0.1,
            kernel_failure_rate=0.03,
            device_failures=[DeviceFailure(2e-2, 0)],
        ),
    ),
    "two-losses": (
        3,
        dict(
            straggler_rate=0.2,
            straggler_multiplier=8.0,
            kernel_failure_rate=0.05,
            device_failures=[DeviceFailure(7e-3, 2), DeviceFailure(4e-2, 0)],
        ),
    ),
}


def _probe_at_random_instants(server, seed, horizon, check, count=60):
    rng = random.Random(seed)
    for when in sorted(rng.uniform(0.0, horizon) for _ in range(count)):
        server.loop.call_at(when, check)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("case", sorted(CASES))
def test_busy_total_is_the_interval_sum(case, seed):
    num_gpus, faults = CASES[case]
    server = build_server(FaultPlan(seed=seed, **faults), num_gpus=num_gpus)
    logs = install(server)
    probes = []

    def mid_flight():
        now = server.loop.now()
        for log in logs:
            kept, listed = log.device.busy_time(now), log.busy_time(until=now)
            assert abs(kept - listed) <= MID_FLIGHT_TOLERANCE, (now, kept, listed)
        probes.append(now)

    requests = 300
    _probe_at_random_instants(server, seed, requests / RATE, mid_flight)
    submitted = run_chaos(server, rate=RATE, num_requests=requests, arrival_seed=seed)
    assert_invariants(server, submitted)
    assert len(probes) == 60
    now = server.loop.now()
    for log in logs:
        assert log.intervals, "the device ran nothing"
        assert log.device.busy_time(now) == log.busy_time()
        if log.death is not None:
            at, reported, listed = log.death
            assert reported == listed, (at, reported, listed)
            assert log.device.busy_time(now) == reported  # nothing after death
    deaths = sum(log.death is not None for log in logs)
    assert deaths == len(faults.get("device_failures", ()))


def _containers(obj, skip, path="device"):
    """``{path: length}`` of every container ``obj`` holds, directly or
    through the ``repro`` objects it holds (``skip`` is shared state, not
    the device's: the event loop)."""
    found = {}
    for name, value in vars(obj).items():
        where = f"{path}.{name}"
        if value is skip or isinstance(value, (str, bytes)):
            continue
        if isinstance(value, (list, tuple, dict, set, frozenset, deque)):
            found[where] = len(value)
        elif type(value).__module__.startswith("repro.") and hasattr(value, "__dict__"):
            found.update(_containers(value, skip, where))
    return found


def _device_state_over_a_run(requests):
    """The containers of each device at random instants and after the
    drain, checked against the worker's in-flight count as they are read."""
    plan = FaultPlan(seed=5, straggler_rate=0.2, kernel_failure_rate=0.03)
    server = build_server(plan, num_gpus=2)
    workers = server.manager.workers

    def check():
        for worker in workers:
            for where, length in _containers(worker.device, server.loop).items():
                assert length <= worker.outstanding, (
                    f"{where} holds {length} entries with "
                    f"{worker.outstanding} tasks in flight after "
                    f"{worker.tasks_executed} executed"
                )

    _probe_at_random_instants(server, 5, requests / RATE, check, count=20)
    submitted = run_chaos(server, rate=RATE, num_requests=requests)
    assert_invariants(server, submitted)
    check()
    return [_containers(w.device, server.loop) for w in workers]


def test_device_state_does_not_grow_with_the_run():
    short = _device_state_over_a_run(100)
    assert _device_state_over_a_run(1000) == short
