"""The recursive parse-tree sampler, kept as the oracle for the flat one.

Until retirement by reference count (DESIGN.md §24) this was
``repro.workload.trees.random_parse_tree``: ``build`` was a closure that
called itself, so every sampled tree left a function <-> cell cycle behind;
then a module-level recursion, until the sampler wrote the post-order
arrays itself (§32).  ``tests/test_tree_runs.py`` holds the flat sampler to
it, through ``tests.oracles.node_tree.flatten_tree`` — same draws in the
same order, so the same shapes and tokens.
"""

import numpy as np

from repro.models.tree_lstm import TreeNodeSpec


def closure_parse_tree(
    rng: np.random.Generator, num_leaves: int, vocab_size: int = 30000
) -> TreeNodeSpec:
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")

    def build(count: int) -> TreeNodeSpec:
        if count == 1:
            return TreeNodeSpec(token=int(rng.integers(0, vocab_size)))
        split = int(rng.integers(1, count))
        return TreeNodeSpec(left=build(split), right=build(count - split))

    return build(num_leaves)
