"""TreeBank-like random binary parse trees.

The Stanford Sentiment TreeBank the paper uses contains ~10k binary parse
trees of English sentences.  We substitute seeded random binary trees whose
leaf counts follow a sentence-length-like distribution (mean ~20, clipped)
and whose shapes are uniformly random binary bracketings — the two
properties (size distribution, shape variety) the scheduling behaviour
depends on.  A sampled tree is its post-order arrays, written as the
draws come (DESIGN.md §32).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.tree_lstm import TreePayload


def random_parse_tree(
    rng: np.random.Generator,
    num_leaves: int,
    vocab_size: int = 30000,
) -> TreePayload:
    """A uniformly random binary bracketing over ``num_leaves`` tokens,
    written straight into the payload's post-order arrays.

    The draws come in pre-order — a node's split, then its left subtree,
    then its right — the order that defines a seed's trees (held to the
    recursive oracle in ``tests/test_tree_runs.py``).  The stack holds leaf counts still to draw, and for each
    internal node a marker, ``1 - 2 * r``: minus the node count of its
    right subtree of ``r`` leaves, whose last node sits just before the
    parent and whose first just after the left child."""
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
    integers = rng.integers
    left: List[int] = []
    right: List[int] = []
    token: List[Optional[int]] = []
    stack = [num_leaves]
    while stack:
        count = stack.pop()
        if count > 1:
            split = int(integers(1, count))
            rest = count - split
            stack += (1 - 2 * rest, rest, split)
        elif count == 1:
            left.append(-1)
            right.append(-1)
            token.append(int(integers(0, vocab_size)))
        else:  # both subtrees are written: the parent follows them
            at = len(token)
            left.append(at - 1 + count)
            right.append(at - 1)
            token.append(None)
    return TreePayload(left, right, token)


class TreeBankSampler:
    """Seeded sampler of TreeBank-like parse-tree payloads.

    Leaf counts are drawn from a clipped log-normal with median 18 and
    sigma 0.5 (mean ~20, max 70), close to the SST sentence statistics.
    """

    MEDIAN = 18.0
    SIGMA = 0.5
    _LOG_MEDIAN = float(np.log(MEDIAN))

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
            # Rounded half to even and clipped in Python: the bits of
            # ``np.clip(np.rint(raw), ...)`` without its scalar arrays.
            raw = self._rng.lognormal(self._LOG_MEDIAN, self.SIGMA)
            count = min(max(round(raw), 1), self.max_leaves)
        return random_parse_tree(self._rng, count, self.vocab_size)
