"""Chain-structured LSTM model (the paper's first application, §7.2).

A request is a token sequence; the unfolded cell graph is a single chain of
one cell type, so the whole request partitions into exactly one subgraph.
The benchmark configuration matches the paper: hidden size 1024, WMT-15-like
length distribution.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.composite import CompositeCell
from repro.cells.embedding import EmbeddingCell
from repro.cells.lstm import LSTMCell
from repro.cells.projection import ProjectionCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, NodeOutput, RunShape, ValueInput
from repro.gpu.costmodel import CostModel, v100_lstm_step_table
from repro.models.base import Model, tokens_field
from repro.tensor.parameters import ParameterStore

LSTM_CELL = "lstm"
PROJECTION_CELL = "lstm_proj"
# Each step's h and c inputs are the previous step's h and c outputs.
_CARRIED_STATE = {"h": "h", "c": "c"}


class LSTMChainModel(Model):
    """LSTM language model over token sequences.

    ``real=False`` (the benchmark default) registers the cell type without a
    compute body — timing comes from the calibrated cost model.  ``real=True``
    builds NumPy cells (embedding folded into the step cell, optionally a
    final projection) so serving produces actual hidden states/tokens.
    """

    def __init__(
        self,
        hidden_dim: int = 1024,
        vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        real: bool = False,
        project_output: bool = False,
        seed: int = 0,
    ):
        self.name = "lstm-chain"
        self.hidden_dim = hidden_dim
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim if embed_dim is not None else hidden_dim
        self.real = real
        self.project_output = project_output
        self.params = ParameterStore(seed=seed)
        # Every chain starts from the zero state; graphs read these two
        # inputs and never write them, so all requests share them.
        zeros = np.zeros(hidden_dim, dtype=np.float32) if real else None
        self._initial_state = {"h": ValueInput(zeros), "c": ValueInput(zeros)}

        if real:
            embed = EmbeddingCell("lstm/embed", vocab_size, self.embed_dim, self.params)
            lstm = LSTMCell("lstm/step", self.embed_dim, hidden_dim, self.params)
            self._lstm_cell = lstm
            step = CompositeCell(
                LSTM_CELL,
                input_names=("ids", "h", "c"),
                output_names=("h", "c"),
                stages=[
                    (embed, {"ids": ("external", "ids")}),
                    (
                        lstm,
                        {
                            "x": ("stage", 0, "emb"),
                            "h": ("external", "h"),
                            "c": ("external", "c"),
                        },
                    ),
                ],
                exports={"h": ("stage", 1, "h"), "c": ("stage", 1, "c")},
            )
            self._step_type = CellType.from_cell(step)
            if project_output:
                proj = ProjectionCell(
                    "lstm/proj", hidden_dim, vocab_size, self.params
                )
                self._proj_type = CellType.from_cell(proj, name=PROJECTION_CELL)
            else:
                self._proj_type = None
        else:
            self._lstm_cell = None
            self._step_type = CellType(
                LSTM_CELL, ("ids", "h", "c"), ("h", "c"), num_operators=12
            )
            self._proj_type = (
                CellType(PROJECTION_CELL, ("h",), ("logits", "token"), num_operators=3)
                if project_output
                else None
            )
        self._chain = RunShape(
            self._step_type, _CARRIED_STATE, ("ids",), self._initial_state
        )

    # -- Model interface ---------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        types = [self._step_type]
        if self._proj_type is not None:
            types.append(self._proj_type)
        return types

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        tokens = tokens_field(payload, "tokens")
        run = graph.add_run(self._chain, len(tokens), {"ids": tokens})
        if self._proj_type is not None:
            proj = graph.add_node(
                self._proj_type, {"h": NodeOutput(run.last_id, "h")}
            )
            graph.mark_result(proj.node_id, "token")
        else:
            graph.mark_result(run.last_id, "h")

    def phases(self, payload: Any) -> List[Tuple[str, int]]:
        steps = len(tokens_field(payload, "tokens"))
        phase_list = [(LSTM_CELL, steps)]
        if self._proj_type is not None:
            phase_list.append((PROJECTION_CELL, 1))
        return phase_list

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        table = v100_lstm_step_table()
        model.register(LSTM_CELL, table)
        if self._proj_type is not None:
            # Projection to the vocabulary costs roughly 2x a step at h=1024.
            model.register(PROJECTION_CELL, table.scale(2.0))
        return model

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        if not self.real:
            return None
        tokens = tokens_field(payload, "tokens")
        h = np.zeros((1, self.hidden_dim), dtype=np.float32)
        c = np.zeros((1, self.hidden_dim), dtype=np.float32)
        table = self.params.get("lstm/embed/table")
        for token in tokens:
            x = table[np.asarray([token])]
            out = self._lstm_cell({"x": x, "h": h, "c": c})
            h, c = out["h"], out["c"]
        if self._proj_type is not None:
            logits = h @ self.params.get("lstm/proj/W") + self.params.get("lstm/proj/b")
            return [np.argmax(logits, axis=-1)[0]]
        return [h[0]]
