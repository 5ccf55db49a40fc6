"""Reference seconds: host time freed of the machine's speed changes.

The sandbox's virtual CPUs each switch, every few seconds to minutes and
independently of one another, between two speeds 1.9x apart (the probe
below takes 1.3 ms or 2.5 ms; no steal time, nothing else running).  How long a
30-second run spends in either state is the machine's doing, so plain wall
or CPU seconds of identical runs differ by a third and more.

A ``Sampler`` therefore runs inside the very process being timed: every
``PERIOD_S`` of the process's own CPU time a signal handler runs a fixed
interpreter-bound loop (``probe``) on the same thread — hence on the same
virtual CPU in the same state — and notes when it ran and how many CPU
seconds it took.  The CPU seconds a region used, less those the probes took,
times ``NOMINAL_PROBE_S`` over the harmonic mean of the probe durations in
the region (samples are evenly spaced in CPU time, so that mean is the
region's average speed) are its *reference seconds*: what it would have
taken on a machine on which the probe always takes ``NOMINAL_PROBE_S``,
the fast state of the sandbox this was written on.  A program made twice as
fast takes half the reference seconds; a machine made half as fast leaves
them as they are.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import Dict, List, Tuple

PERIOD_S = 0.05
PROBE_ITERATIONS = 2000
NOMINAL_PROBE_S = 0.0013


class _Node:
    __slots__ = ("key", "weight", "deps")

    def __init__(self, key: int, weight: float):
        self.key, self.weight, self.deps = key, weight, []


def probe() -> float:
    """What the program's hot paths are made of: small objects, lists, a
    dict, a heap, calls.  Keeps no more than a thousand objects alive."""
    table: Dict[int, _Node] = {}
    heap: List[Tuple[float, int]] = []
    prev = None
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        node = _Node(i, i * 0.5)
        if prev is not None:
            node.deps.append(prev.key)
        prev = node
        table[i & 1023] = node
        heapq.heappush(heap, (node.weight, i))
        if i & 3 == 3:
            total += heapq.heappop(heap)[0]
        got = table.get((i * 7) & 1023)
        if got is not None:
            total += got.weight
    return total


class Sampler:
    """Probe durations of this process, one every ``PERIOD_S`` of its CPU
    time.  ``samples`` holds (``time.monotonic()`` when the handler began,
    the timed probe's CPU seconds, the whole handler's CPU seconds): the
    monotonic clock is the same in every process, so a client can pick a
    server's samples by its own timestamps."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []

    def start(self) -> None:
        self._tick()  # a region shorter than a period still finds a sample
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)

    def _tick(self, signum=None, frame=None) -> None:
        at, entered = time.monotonic(), time.thread_time()
        # A collection that falls due inside the probe would walk the
        # program's heap on the probe's account.
        collecting = gc.isenabled()
        gc.disable()
        try:
            probe()  # refills the caches the program emptied
            start = time.thread_time()
            probe()
            done = time.thread_time()
            self.samples.append((at, done - start, done - entered))
        finally:
            if collecting:
                gc.enable()


def reference_seconds(
    seconds: float, samples: List[Tuple[float, float, float]], begin: float, end: float
) -> Tuple[float, float]:
    """(reference seconds, machine speed) of a region that took ``seconds``,
    the sampling handlers included, between the monotonic times ``begin``
    and ``end``; speed 1 is the reference machine.  A region too short to
    hold a sample takes the speed of the sample nearest to it."""
    inside = [s for s in samples if begin <= s[0] <= end]
    spent = sum(tick_s for _, _, tick_s in inside)
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - begin))]
    speed = NOMINAL_PROBE_S * sum(1.0 / probe_s for _, probe_s, _ in inside) / len(inside)
    return (seconds - spent) * speed, speed
