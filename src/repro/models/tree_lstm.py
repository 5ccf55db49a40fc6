"""TreeLSTM model over binary parse trees (§7.5).

Two cell types: leaf (grey in the paper's Figure 2) and internal (white).
Unfolding a tree yields one single-node subgraph per leaf plus one subgraph
containing all internal nodes — the worked example of §4.4.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.tree_lstm import TreeInternalCell, TreeLeafCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph
from repro.gpu.costmodel import (
    CostModel,
    tree_internal_step_table,
    tree_leaf_step_table,
)
from repro.models.base import Model
from repro.tensor.parameters import ParameterStore

LEAF_CELL = "tree_leaf"
INTERNAL_CELL = "tree_internal"

# An internal cell's inputs: which output of which child feeds each.
_LEFT_INPUTS = {"h_l": "h", "c_l": "c"}
_RIGHT_INPUTS = {"h_r": "h", "c_r": "c"}


class TreeNodeSpec:
    """A node of a binary parse tree: either a leaf with a token, or an
    internal node with exactly two children."""

    __slots__ = ("token", "left", "right")

    def __init__(
        self,
        token: Optional[int] = None,
        left: Optional["TreeNodeSpec"] = None,
        right: Optional["TreeNodeSpec"] = None,
    ):
        is_leaf = token is not None
        has_children = left is not None or right is not None
        if is_leaf and has_children:
            raise ValueError("a tree node is either a leaf or internal, not both")
        if not is_leaf and (left is None or right is None):
            raise ValueError("internal nodes need exactly two children")
        self.token = token
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    def _shape(self) -> Tuple[int, int]:
        """(leaves, depth), walked with a stack: a parse tree may be deeper
        than the interpreter's recursion limit."""
        leaves = depth = 0
        stack = [(self, 1)]
        while stack:
            spec, level = stack.pop()
            if spec.token is not None:
                leaves += 1
                depth = max(depth, level)
            else:
                stack.append((spec.left, level + 1))
                stack.append((spec.right, level + 1))
        return leaves, depth

    def num_leaves(self) -> int:
        return self._shape()[0]

    def num_nodes(self) -> int:
        return 2 * self._shape()[0] - 1  # every internal node has two children

    def depth(self) -> int:
        return self._shape()[1]

    @classmethod
    def complete(cls, num_leaves: int, token: int = 0) -> "TreeNodeSpec":
        """A complete binary tree with ``num_leaves`` leaves (power of two),
        e.g. the 16-leaf tree of the paper's §4.4 and Figure 15."""
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise ValueError("num_leaves must be a positive power of two")
        if num_leaves == 1:
            return cls(token=token)
        half = num_leaves // 2
        return cls(left=cls.complete(half, token), right=cls.complete(half, token))


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


class TreePayload:
    """Request payload: the parse tree of one sentence."""

    def __init__(self, root: TreeNodeSpec):
        self.root = root

    def num_leaves(self) -> int:
        return self.root.num_leaves()

    def num_nodes(self) -> int:
        return self.root.num_nodes()

    def depth(self) -> int:
        return self.root.depth()


class TreeLSTMModel(Model):
    """Binary TreeLSTM (Tai et al.) for sentence classification."""

    def __init__(
        self,
        hidden_dim: int = 1024,
        vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        real: bool = False,
        seed: int = 0,
    ):
        self.name = "tree-lstm"
        self.hidden_dim = hidden_dim
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim if embed_dim is not None else hidden_dim
        self.real = real
        self.params = ParameterStore(seed=seed)

        if real:
            leaf = TreeLeafCell(
                "tree/leaf", vocab_size, self.embed_dim, hidden_dim, self.params
            )
            internal = TreeInternalCell("tree/internal", hidden_dim, self.params)
            self._leaf_cell, self._internal_cell = leaf, internal
            self._leaf_type = CellType.from_cell(leaf, name=LEAF_CELL)
            self._internal_type = CellType.from_cell(internal, name=INTERNAL_CELL)
        else:
            self._leaf_cell = self._internal_cell = None
            self._leaf_type = CellType(LEAF_CELL, ("ids",), ("h", "c"), num_operators=8)
            self._internal_type = CellType(
                INTERNAL_CELL, ("h_l", "c_l", "h_r", "c_r"), ("h", "c"), num_operators=13
            )

    # -- Model interface -----------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        return [self._leaf_type, self._internal_type]

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        if not isinstance(payload, TreePayload):
            raise TypeError(f"TreeLSTM payload must be TreePayload, got {type(payload)}")
        left, right, token = flatten_tree(payload.root)
        tree = graph.add_tree(
            self._leaf_type,
            self._internal_type,
            left,
            right,
            token,
            leaf_input="ids",
            left_inputs=_LEFT_INPUTS,
            right_inputs=_RIGHT_INPUTS,
        )
        graph.mark_result(tree.stop - 1, "h")

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        model.register(LEAF_CELL, tree_leaf_step_table())
        model.register(INTERNAL_CELL, tree_internal_step_table())
        return model

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        if not self.real:
            return None
        h, _ = self._forward_node(payload.root)
        return [h[0]]

    def _forward_node(self, spec: TreeNodeSpec) -> Tuple[np.ndarray, np.ndarray]:
        if spec.is_leaf:
            out = self._leaf_cell({"ids": np.asarray([spec.token])})
            return out["h"], out["c"]
        h_l, c_l = self._forward_node(spec.left)
        h_r, c_r = self._forward_node(spec.right)
        out = self._internal_cell(
            {"h_l": h_l, "c_l": c_l, "h_r": h_r, "c_r": c_r}
        )
        return out["h"], out["c"]
