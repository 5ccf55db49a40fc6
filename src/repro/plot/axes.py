"""Axis scales and tick generation."""

from __future__ import annotations

import math
from typing import List, Tuple


def nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Human-friendly linear tick positions covering [lo, hi]."""
    if hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if hi == lo:
        return [lo]
    span = hi - lo
    raw_step = span / max(target - 1, 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiple in (1, 2, 2.5, 5, 10):
        step = multiple * magnitude
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 12))
        value += step
    return ticks


class LinearScale:
    """Maps a data interval onto a pixel interval linearly."""

    def __init__(self, lo: float, hi: float):
        if hi <= lo:
            raise ValueError(f"invalid domain [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def fraction(self, value: float) -> float:
        return (value - self.lo) / (self.hi - self.lo)

    def ticks(self, target: int = 6) -> List[float]:
        return nice_ticks(self.lo, self.hi, target)


class LogScale:
    """Base-10 logarithmic scale; domain must be strictly positive."""

    def __init__(self, lo: float, hi: float):
        if lo <= 0 or hi <= lo:
            raise ValueError(f"invalid log domain [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def fraction(self, value: float) -> float:
        if value <= 0:
            raise ValueError("log scale cannot map non-positive values")
        return (math.log10(value) - math.log10(self.lo)) / (
            math.log10(self.hi) - math.log10(self.lo)
        )

    def ticks(self, target: int = 6) -> List[float]:
        lo_exp = math.floor(math.log10(self.lo))
        hi_exp = math.ceil(math.log10(self.hi))
        ticks = [
            10.0 ** e
            for e in range(lo_exp, hi_exp + 1)
            if self.lo <= 10.0 ** e <= self.hi
        ]
        return ticks or [self.lo, self.hi]


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        if abs(value) >= 1e6:
            return f"{value / 1e6:g}M"
        return f"{value / 1e3:g}k"
    if abs(value) < 0.01:
        return f"{value:.0e}"
    return f"{value:g}"


class Axis:
    """An axis: scale + rendered tick labels (the chart draws its own
    ``x_label`` / ``y_label``)."""

    def __init__(self, scale):
        self.scale = scale

    @classmethod
    def linear(cls, lo: float, hi: float) -> "Axis":
        if hi == lo:
            hi = lo + 1.0
        return cls(LinearScale(lo, hi))

    @classmethod
    def log(cls, lo: float, hi: float) -> "Axis":
        return cls(LogScale(lo, hi))

    def fraction(self, value: float) -> float:
        return self.scale.fraction(value)

    def tick_labels(self, target: int = 6) -> List[Tuple[float, str]]:
        return [(t, _format_tick(t)) for t in self.scale.ticks(target)]
