"""TreeBank-like random binary parse trees.

The Stanford Sentiment TreeBank the paper uses contains ~10k binary parse
trees of English sentences.  We substitute seeded random binary trees
whose leaf counts follow a sentence-length-like distribution (mean ~20,
clipped) and whose shapes are uniformly random binary bracketings — the
two properties (size distribution, shape variety) the scheduling
behaviour depends on.  A sampled tree is its post-order arrays, written
as the draws come (DESIGN.md §32), from blocks of the generator's raw
32-bit words (§41).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.tree_lstm import TreePayload

_WORD = 1 << 32
_LOW = _WORD - 1


def _next_words(integers, stack: List[int], count: int, per_leaf: int) -> List[int]:
    """The generator's next raw 32-bit words: as many as the subtree of
    ``count`` leaves now drawn and the subtrees on ``stack`` are sure to
    consume, so the block never runs past the tree's last draw.  A subtree
    of ``c`` leaves draws ``c`` tokens (``per_leaf`` is 0 when a token is
    free) and at least ``ceil(c / 2) - 1`` splits: of its ``c - 1``
    internal nodes at most ``c // 2`` have two leaves, whose split is the
    only free one.  Markers (negative) draw nothing."""
    need = per_leaf * count + (count + 1) // 2 - 1
    for pending in stack:
        if pending > 0:
            need += per_leaf * pending + (pending + 1) // 2 - 1
    if need <= 2:  # a scalar draw skips the block's array set-up
        return [int(integers(0, _WORD, dtype=np.uint32))]
    return integers(0, _WORD, size=need, dtype=np.uint32).tolist()


def random_parse_tree(
    rng: np.random.Generator,
    num_leaves: int,
    vocab_size: int = 30000,
) -> TreePayload:
    """A uniformly random binary bracketing over ``num_leaves`` tokens,
    written straight into the payload's post-order arrays.

    The draws come in pre-order — a node's split, then its left subtree,
    then its right — the order that defines a seed's trees (held to the
    recursive oracle in ``tests/test_tree_runs.py``).

    The stack holds leaf counts still to draw, and for each internal node
    a marker, ``1 - 2 * r``: minus the node count of its right subtree of
    ``r`` leaves, whose last node sits just before the parent and whose
    first just after the left child.

    Each draw is numpy's bounded draw on a raw word ``u``, as
    ``rng.integers(low, high)`` makes it (Lemire's method): ``m = u *
    (high - low)``, rejected while its low 32 bits are below ``2**32 %
    (high - low)``, value ``low + (m >> 32)``; an empty range (a 2-leaf
    split, ``vocab_size == 1``) draws nothing.  The words come a block at
    a time (``_next_words``), so a seed gives the trees, and leaves the
    generator in the state, that one ``rng.integers`` call per split and
    token did (``tests/oracles/scalar_parse_tree.py``)."""
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
    if not 1 <= vocab_size <= _WORD:
        # Above 2**32 numpy draws 64-bit words, which are not emulated here.
        raise ValueError(f"vocab_size must be in [1, 2**32], got {vocab_size}")
    integers = rng.integers
    per_leaf = int(vocab_size > 1)
    token_floor = _WORD % vocab_size
    words: List[int] = []
    cursor = 0  # minus the words left in ``words``
    left: List[int] = []
    right: List[int] = []
    token: List[Optional[int]] = []
    stack = [num_leaves]
    while stack:
        count = stack.pop()
        if count > 2:
            if not cursor:
                words = _next_words(integers, stack, count, per_leaf)
                cursor = -len(words)
            span = count - 1
            m = words[cursor] * span
            cursor += 1
            if m & _LOW < span and m & _LOW < _WORD % span:
                stack.append(count)  # rejected: draw this split again
                continue
            split = (m >> 32) + 1
            rest = count - split
            stack += (1 - 2 * rest, rest, split)
        elif count == 2:  # the split is 1, from an empty range
            stack += (-1, 1, 1)
        elif count == 1:
            if per_leaf:
                if not cursor:
                    words = _next_words(integers, stack, 1, 1)
                    cursor = -len(words)
                m = words[cursor] * vocab_size
                cursor += 1
                if m & _LOW < token_floor:
                    stack.append(1)  # rejected: draw this token again
                    continue
                token.append(m >> 32)
            else:
                token.append(0)
            left.append(-1)
            right.append(-1)
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
        if fixed_leaves is not None and fixed_leaves < 1:
            raise ValueError("fixed_leaves must be >= 1")
        if not 1 <= vocab_size <= _WORD:
            raise ValueError(f"vocab_size must be in [1, 2**32], got {vocab_size}")
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
