"""Sentence-length distribution calibrated to WMT-15 Europarl.

The paper reports (§7.1, Figure 10): 100k sampled sentences, average length
24, maximum length 330, and "about 99 percent of sequences have length less
than 100".  A clipped log-normal reproduces all three statistics:

    length = clip(round(LogNormal(mu=log 19, sigma=0.68)), 1, 330)

which gives mean ~24, p99 ~93 and a long thin tail to the 330 clip.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class WMTLengthSampler:
    """Seeded sampler of WMT-15-Europarl-like sentence lengths.

    ``max_length`` below 330 emulates the paper's Figure 11 clipped
    variants (max 50 and max 100); samples above the cap are clipped, not
    rejected, matching how the paper "sample[s] two different datasets ...
    by clipping the maximum sequence length".
    """

    MEDIAN = 19.0
    SIGMA = 0.68
    HARD_MAX = 330
    _LOG_MEDIAN = float(np.log(MEDIAN))  # the mean of the underlying normal

    def __init__(self, seed: int = 0, max_length: int = HARD_MAX):
        if not 1 <= max_length <= self.HARD_MAX:
            raise ValueError(
                f"max_length must be in [1, {self.HARD_MAX}], got {max_length}"
            )
        self._rng = np.random.default_rng(seed)
        self.max_length = max_length

    def sample(self, n: int = 1) -> np.ndarray:
        """Draw ``n`` integer lengths."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        raw = self._rng.lognormal(np.log(self.MEDIAN), self.SIGMA, size=n)
        return np.clip(np.rint(raw), 1, self.max_length).astype(np.int64)

    def sample_one(self) -> int:
        """One length: the draw :meth:`sample` would make for ``n = 1``,
        rounded (half to even, as ``np.rint``) and clipped in Python —
        the same bits without building three one-element arrays
        (DESIGN.md §39)."""
        raw = self._rng.lognormal(self._LOG_MEDIAN, self.SIGMA)
        return min(max(round(raw), 1), self.max_length)


def length_cdf(lengths: Sequence[int]) -> List[tuple]:
    """Empirical CDF points [(length, cumulative fraction)] — Figure 10."""
    if len(lengths) == 0:
        raise ValueError("need at least one length")
    values, counts = np.unique(np.asarray(lengths), return_counts=True)
    cum = np.cumsum(counts) / len(lengths)
    return list(zip(values.tolist(), cum.tolist()))
