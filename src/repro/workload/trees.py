"""TreeBank-like random binary parse trees.

The Stanford Sentiment TreeBank the paper uses contains ~10k binary parse
trees of English sentences.  We substitute seeded random binary trees whose
leaf counts follow a sentence-length-like distribution (mean ~20, clipped)
and whose shapes are uniformly random binary bracketings — the two
properties (size distribution, shape variety) the scheduling behaviour
depends on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.tree_lstm import TreeNodeSpec, TreePayload


def random_parse_tree(
    rng: np.random.Generator,
    num_leaves: int,
    vocab_size: int = 30000,
) -> TreePayload:
    """A uniformly random binary bracketing over ``num_leaves`` tokens."""
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
    return TreePayload(_build_tree(rng, num_leaves, vocab_size))


def _build_tree(rng: np.random.Generator, count: int, vocab_size: int) -> TreeNodeSpec:
    # Module level, not a closure: a nested function that calls itself is a
    # function <-> cell cycle, garbage only the cyclic collector can free.
    if count == 1:
        return TreeNodeSpec(token=int(rng.integers(0, vocab_size)))
    split = int(rng.integers(1, count))
    return TreeNodeSpec(
        left=_build_tree(rng, split, vocab_size),
        right=_build_tree(rng, count - split, vocab_size),
    )


class TreeBankSampler:
    """Seeded sampler of TreeBank-like parse-tree payloads.

    Leaf counts are drawn from a clipped log-normal with median 18 and
    sigma 0.5 (mean ~20, max 70), close to the SST sentence statistics.
    """

    MEDIAN = 18.0
    SIGMA = 0.5

    def __init__(
        self,
        seed: int = 0,
        vocab_size: int = 30000,
        max_leaves: int = 70,
        fixed_leaves: Optional[int] = None,
    ):
        if max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")
        self._rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.max_leaves = max_leaves
        self.fixed_leaves = fixed_leaves

    def sample_one(self) -> TreePayload:
        if self.fixed_leaves is not None:
            count = self.fixed_leaves
        else:
            raw = self._rng.lognormal(np.log(self.MEDIAN), self.SIGMA)
            count = int(np.clip(np.rint(raw), 1, self.max_leaves))
        return random_parse_tree(self._rng, count, self.vocab_size)
