"""The per-node TreeLSTM unfold, kept as the oracle for flat trees.

Until flat trees (DESIGN.md, "Flat trees") this was
``TreeLSTMModel.unfold``: a recursive walk with one ``add_node`` per tree
node, each with its own ``inputs`` dict, partitioned by the generic
component search.  ``tests/test_tree_runs.py`` holds the ``TreeRun`` form to
it — same graph view, same partition, same outcome fingerprints, same
computed values.
"""

from typing import Any

from repro.core.cell_graph import CellGraph, NodeOutput, ValueInput
from repro.models.tree_lstm import TreeLSTMModel, TreeNodeSpec, TreePayload


class ExplicitTreeModel(TreeLSTMModel):
    """``TreeLSTMModel`` that materialises every tree node as an explicit
    node (recursively: not for trees deeper than the recursion limit)."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        if not isinstance(payload, TreePayload):
            raise TypeError(f"TreeLSTM payload must be TreePayload, got {type(payload)}")
        root = self._unfold_node(graph, payload.root)
        graph.mark_result(root.node_id, "h")

    def _unfold_node(self, graph: CellGraph, spec: TreeNodeSpec):
        if spec.token is not None:
            return graph.add_node(self._leaf_type, {"ids": ValueInput(spec.token)})
        left = self._unfold_node(graph, spec.left)
        right = self._unfold_node(graph, spec.right)
        return graph.add_node(
            self._internal_type,
            {
                "h_l": NodeOutput(left.node_id, "h"),
                "c_l": NodeOutput(left.node_id, "c"),
                "h_r": NodeOutput(right.node_id, "h"),
                "c_r": NodeOutput(right.node_id, "c"),
            },
        )
