"""The parse tree as ``TreeNodeSpec`` objects, kept as the oracle for the
flat payload.

Until the payload became its post-order arrays (DESIGN.md §32) a
``TreePayload`` held a tree of ``TreeNodeSpec`` nodes: ``flatten_tree``
walked it on every unfold, and the node class answered ``num_leaves`` /
``num_nodes`` / ``depth`` and built the complete trees.  Those walks live on
here, for tests that build a tree node by node and for
``tests/test_tree_runs.py``, which holds the flat payload to them.  So does
:func:`depth`, the one-pass depth of the flat payload, which no engine code
asks for.
"""

from typing import Any, List, Optional, Tuple

from repro.models.tree_lstm import TreeNodeSpec, TreePayload


def flatten_tree(root: TreeNodeSpec) -> Tuple[List[int], List[int], List[Any]]:
    """``(left, right, token)`` of the tree in post-order — position ``i``
    holds node ``i``'s child positions (-1 for a leaf) and its token (None
    for an internal node) — walked with a stack, not by recursion."""
    left: List[int] = []
    right: List[int] = []
    token: List[Any] = []
    done: List[int] = []  # positions of finished subtrees awaiting a parent
    stack: List[Optional[TreeNodeSpec]] = [root]
    while stack:
        spec = stack.pop()
        if spec is None:  # both subtrees of an internal node are finished
            right.append(done.pop())
            left.append(done.pop())
            token.append(None)
        elif spec.token is not None:
            left.append(-1)
            right.append(-1)
            token.append(spec.token)
        else:
            stack.append(None)
            stack.append(spec.right)
            stack.append(spec.left)
            continue
        done.append(len(token) - 1)
    return left, right, token


def payload_of(root: TreeNodeSpec) -> TreePayload:
    """The flat payload of a tree built node by node."""
    return TreePayload(*flatten_tree(root))


def tree_shape(root: TreeNodeSpec) -> Tuple[int, int, int]:
    """``(leaves, nodes, depth)``, walked with a stack: a parse tree may be
    deeper than the interpreter's recursion limit."""
    leaves = depth = 0
    stack = [(root, 1)]
    while stack:
        spec, level = stack.pop()
        if spec.token is not None:
            leaves += 1
            depth = max(depth, level)
        else:
            stack.append((spec.left, level + 1))
            stack.append((spec.right, level + 1))
    return leaves, 2 * leaves - 1, depth  # every internal node has two children


def depth(payload: TreePayload) -> int:
    """Levels from the payload's root down to its deepest leaf: one pass
    over the post-order arrays, each node after its children."""
    levels: List[int] = []
    for lhs, rhs in zip(payload.left, payload.right):
        levels.append(1 if lhs < 0 else 1 + max(levels[lhs], levels[rhs]))
    return levels[-1]


def complete_tree(num_leaves: int, token: int = 0) -> TreeNodeSpec:
    """A complete binary tree with ``num_leaves`` leaves (power of two)."""
    if num_leaves < 1 or num_leaves & (num_leaves - 1):
        raise ValueError("num_leaves must be a positive power of two")
    if num_leaves == 1:
        return TreeNodeSpec(token=token)
    half = num_leaves // 2
    return TreeNodeSpec(
        left=complete_tree(half, token), right=complete_tree(half, token)
    )
