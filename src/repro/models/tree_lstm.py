"""TreeLSTM model over binary parse trees (§7.5).

Two cell types: leaf (grey in the paper's Figure 2) and internal (white).
Unfolding a tree yields one single-node subgraph per leaf plus one subgraph
containing all internal nodes — the worked example of §4.4.

The evaluation consumes tree shapes and tokens only, so a payload is the
post-order arrays ``CellGraph.add_tree`` reads, written by the sampler and
handed over as they are: no node object sits between them (DESIGN.md §32).
"""

from __future__ import annotations

import reprlib
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.cells.tree_lstm import TreeInternalCell, TreeLeafCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph
from repro.core.request import PayloadError
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
    internal node with exactly two children.  Only :attr:`TreePayload.root`
    builds these; the serving path reads the payload's arrays."""

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


class TreePayload:
    """Request payload: the parse tree of one sentence, as the post-order
    arrays :meth:`CellGraph.add_tree` reads — position ``i`` holds node
    ``i``'s child positions in ``left`` / ``right`` (-1 for a leaf) and its
    token in ``token`` (None for an internal node).  Plain lists, untouched
    after construction: a served tree keeps them by reference."""

    __slots__ = ("left", "right", "token")

    def __init__(self, left: List[int], right: List[int], token: List[Any]):
        self.left = left
        self.right = right
        self.token = token

    @classmethod
    def complete(cls, num_leaves: int, token: int = 0) -> "TreePayload":
        """A complete binary tree with ``num_leaves`` leaves (power of two),
        e.g. the 16-leaf tree of the paper's §4.4 and Figure 15: each
        doubling is two copies of the tree so far under a new root."""
        if num_leaves < 1 or num_leaves & (num_leaves - 1):
            raise ValueError("num_leaves must be a positive power of two")
        left, right, tokens = [-1], [-1], [token]
        while len(tokens) < 2 * num_leaves - 1:
            size = len(tokens)
            left += [i + size if i >= 0 else -1 for i in left] + [size - 1]
            right += [i + size if i >= 0 else -1 for i in right] + [2 * size - 1]
            tokens += tokens + [None]
        return cls(left, right, tokens)

    @property
    def root(self) -> TreeNodeSpec:
        """The tree as :class:`TreeNodeSpec` nodes, built from the arrays
        (children first) each time it is read."""
        nodes: List[TreeNodeSpec] = []
        for lhs, rhs, token in zip(self.left, self.right, self.token):
            if lhs < 0:
                nodes.append(TreeNodeSpec(token=token))
            else:
                nodes.append(TreeNodeSpec(left=nodes[lhs], right=nodes[rhs]))
        return nodes[-1]

    def num_leaves(self) -> int:
        return (len(self.left) + 1) // 2  # every internal node has two children

    def num_nodes(self) -> int:
        return len(self.left)


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
            raise PayloadError(
                f"payload must be a TreePayload, got {reprlib.repr(payload)}"
            )
        tree = graph.add_tree(
            self._leaf_type,
            self._internal_type,
            payload.left,
            payload.right,
            payload.token,
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
        """The tree evaluated node by node in post-order — one loop, one
        ``(h, c)`` per position — so no depth is too deep for it."""
        if not self.real:
            return None
        h: List[np.ndarray] = []
        c: List[np.ndarray] = []
        for lhs, rhs, token in zip(payload.left, payload.right, payload.token):
            if lhs < 0:
                out = self._leaf_cell({"ids": np.asarray([token])})
            else:
                out = self._internal_cell(
                    {"h_l": h[lhs], "c_l": c[lhs], "h_r": h[rhs], "c_r": c[rhs]}
                )
            h.append(out["h"])
            c.append(out["c"])
        return [h[-1][0]]
