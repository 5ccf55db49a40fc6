"""Chain-structured GRU model (extension beyond the paper's applications).

Cellular batching is agnostic to the cell body; this model demonstrates
that by swapping the LSTM step for a GRU step (single hidden vector, no
cell state) while reusing the exact same serving machinery.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.composite import CompositeCell
from repro.cells.embedding import EmbeddingCell
from repro.cells.gru import GRUCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, RunShape, ValueInput
from repro.gpu.costmodel import CostModel, v100_lstm_step_table
from repro.models.base import Model, tokens_field
from repro.tensor.parameters import ParameterStore

GRU_CELL = "gru"
# Each step's h input is the previous step's h output.
_CARRIED_STATE = {"h": "h"}


class GRUChainModel(Model):
    """GRU language model over token sequences."""

    def __init__(
        self,
        hidden_dim: int = 1024,
        vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        real: bool = False,
        seed: int = 0,
    ):
        self.name = "gru-chain"
        self.hidden_dim = hidden_dim
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim if embed_dim is not None else hidden_dim
        self.real = real
        self.params = ParameterStore(seed=seed)
        # Every chain starts from the zero state, shared by all requests.
        zeros = np.zeros(hidden_dim, dtype=np.float32) if real else None
        self._initial_state = {"h": ValueInput(zeros)}

        if real:
            embed = EmbeddingCell("gru/embed", vocab_size, self.embed_dim, self.params)
            gru = GRUCell("gru/step", self.embed_dim, hidden_dim, self.params)
            self._gru_cell = gru
            step = CompositeCell(
                GRU_CELL,
                input_names=("ids", "h"),
                output_names=("h",),
                stages=[
                    (embed, {"ids": ("external", "ids")}),
                    (gru, {"x": ("stage", 0, "emb"), "h": ("external", "h")}),
                ],
                exports={"h": ("stage", 1, "h")},
            )
            self._step_type = CellType.from_cell(step)
        else:
            self._gru_cell = None
            self._step_type = CellType(GRU_CELL, ("ids", "h"), ("h",), num_operators=13)
        self._chain = RunShape(
            self._step_type, _CARRIED_STATE, ("ids",), self._initial_state
        )

    def cell_types(self) -> Sequence[CellType]:
        return [self._step_type]

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        tokens = tokens_field(payload, "tokens")
        run = graph.add_run(self._chain, len(tokens), {"ids": tokens})
        graph.mark_result(run.last_id, "h")

    def phases(self, payload: Any) -> List[Tuple[str, int]]:
        return [(GRU_CELL, len(tokens_field(payload, "tokens")))]

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        # A GRU step is ~3/4 of an LSTM step's arithmetic (3 gates vs 4).
        model.register(GRU_CELL, v100_lstm_step_table().scale(0.75, name="gru-step"))
        return model

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        if not self.real:
            return None
        tokens = tokens_field(payload, "tokens")
        h = np.zeros((1, self.hidden_dim), dtype=np.float32)
        table = self.params.get("gru/embed/table")
        for token in tokens:
            x = table[np.asarray([token])]
            h = self._gru_cell({"x": x, "h": h})["h"]
        return [h[0]]
