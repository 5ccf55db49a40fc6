"""The per-step LSTM unfold, kept as the oracle for run-length chains.

Until run-length chains (DESIGN.md, "Run-length chains") this was
``LSTMChainModel.unfold``: one ``add_node`` per token, each with its own
``inputs`` dict.  ``tests/test_chain_runs.py`` holds the run-length form to
it — same graph view, same outcome fingerprints, same computed values.
"""

from typing import Any

from repro.core.cell_graph import CellGraph, NodeOutput, ValueInput
from repro.models.lstm_chain import LSTMChainModel, _normalize_tokens


class ExplicitChainModel(LSTMChainModel):
    """``LSTMChainModel`` that materialises every step as an explicit node."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        tokens = _normalize_tokens(payload)
        zeros = self._initial_state["h"].value
        prev = None
        for token in tokens:
            inputs = {"ids": ValueInput(token)}
            if prev is None:
                inputs["h"] = ValueInput(zeros)
                inputs["c"] = ValueInput(zeros)
            else:
                inputs["h"] = NodeOutput(prev.node_id, "h")
                inputs["c"] = NodeOutput(prev.node_id, "c")
            prev = graph.add_node(self._step_type, inputs)
        if self._proj_type is not None:
            proj = graph.add_node(
                self._proj_type, {"h": NodeOutput(prev.node_id, "h")}
            )
            graph.mark_result(proj.node_id, "token")
        else:
            graph.mark_result(prev.node_id, "h")
