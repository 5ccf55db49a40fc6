"""The nested-closure parse-tree sampler, kept as the oracle for the
module-level one.

Until retirement by reference count (DESIGN.md §24) this was
``repro.workload.trees.random_parse_tree``: ``build`` was a closure that
called itself, so every sampled tree left a function <-> cell cycle behind.
``tests/test_workload.py`` holds the module-level sampler to it — same
draws in the same order, so the same shapes and tokens.
"""

import numpy as np

from repro.models.tree_lstm import TreeNodeSpec, TreePayload


def closure_parse_tree(
    rng: np.random.Generator, num_leaves: int, vocab_size: int = 30000
) -> TreePayload:
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")

    def build(count: int) -> TreeNodeSpec:
        if count == 1:
            return TreeNodeSpec(token=int(rng.integers(0, vocab_size)))
        split = int(rng.integers(1, count))
        return TreeNodeSpec(left=build(split), right=build(count - split))

    return TreePayload(build(num_leaves))
