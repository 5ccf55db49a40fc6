"""The flat parse-tree sampler with one scalar draw per split and token.

Until the sampler took its draws as blocks of raw words (DESIGN.md §41)
this was ``repro.workload.trees.random_parse_tree``: the same pre-order
and post-order arrays (§32), but each split ``rng.integers(1, count)`` and
each token ``rng.integers(0, vocab_size)`` one numpy call.
``tests/test_tree_sampler.py`` holds the block sampler to it, array for
array and generator state for generator state.
"""

from typing import List, Optional

import numpy as np

from repro.models.tree_lstm import TreePayload


def scalar_parse_tree(
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
