"""Seq2Seq with attention decoding (extension beyond the paper's models).

Uses the fixed-capacity padded memory of :mod:`repro.cells.attention` so
attention cells of different requests stay shape-compatible and batch at
the cell level like everything else.  Source sequences longer than
``max_src`` are rejected at unfolding time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.attention import AttentionDecoderCell, AttentionEncoderCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, NodeOutput, RunShape, ValueInput
from repro.core.request import PayloadError
from repro.gpu.costmodel import (
    CostModel,
    seq2seq_decoder_step_table,
    v100_lstm_step_table,
)
from repro.models.base import Model, length_field
from repro.models.seq2seq import GO_TOKEN, src_field
from repro.tensor.parameters import ParameterStore

ATTN_ENCODER_CELL = "attn_encoder"
ATTN_DECODER_CELL = "attn_decoder"
# Each encoder step reads the previous step's state and memory.
_ENCODER_CARRIED = {"h": "h", "c": "c", "mem": "mem"}


class AttentionSeq2SeqModel(Model):
    """Attention-based translation model served with cellular batching."""

    def __init__(
        self,
        hidden_dim: int = 1024,
        src_vocab_size: int = 30000,
        tgt_vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        max_src: int = 64,
        real: bool = False,
        seed: int = 0,
    ):
        self.name = "attention-seq2seq"
        self.hidden_dim = hidden_dim
        self.max_src = max_src
        self.real = real
        self.params = ParameterStore(seed=seed)
        embed = embed_dim if embed_dim is not None else hidden_dim
        # Every encoder starts from the zero state and an empty memory,
        # shared by all requests.
        zeros = np.zeros(hidden_dim, dtype=np.float32) if real else None
        empty_mem = np.zeros((max_src, hidden_dim), dtype=np.float32) if real else None
        self._initial_state = {
            "h": ValueInput(zeros),
            "c": ValueInput(zeros),
            "mem": ValueInput(empty_mem),
        }

        if real:
            self._encoder_cell = AttentionEncoderCell(
                "attn/enc", src_vocab_size, embed, hidden_dim, max_src, self.params
            )
            self._decoder_cell = AttentionDecoderCell(
                "attn/dec", tgt_vocab_size, embed, hidden_dim, max_src, self.params
            )
            self._encoder_type = CellType.from_cell(
                self._encoder_cell, name=ATTN_ENCODER_CELL
            )
            self._decoder_type = CellType.from_cell(
                self._decoder_cell, name=ATTN_DECODER_CELL
            )
        else:
            self._encoder_cell = self._decoder_cell = None
            self._encoder_type = CellType(
                ATTN_ENCODER_CELL, ("ids", "h", "c", "mem", "pos"),
                ("h", "c", "mem"), num_operators=13,
            )
            self._decoder_type = CellType(
                ATTN_DECODER_CELL, ("ids", "h", "c", "mem", "mask"),
                ("h", "c", "token"), num_operators=21,
            )
        self._encoder_chain = RunShape(
            self._encoder_type, _ENCODER_CARRIED, ("ids", "pos"), self._initial_state
        )

    # -- Model interface ---------------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        return [self._encoder_type, self._decoder_type]

    def _normalize(self, payload: Any) -> Dict[str, Any]:
        src_tokens = src_field(payload)
        if len(src_tokens) > self.max_src:
            raise PayloadError(
                f"src length {len(src_tokens)} exceeds attention memory "
                f"capacity {self.max_src}"
            )
        return {"src": src_tokens, "tgt_len": length_field(payload.get("tgt_len"), "tgt_len")}

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        src = spec["src"]
        encoder = graph.add_run(
            self._encoder_chain, len(src), {"ids": src, "pos": range(len(src))}
        )
        last = encoder.last_id

        mask = None
        if self.real:
            mask = np.zeros(self.max_src, dtype=np.float32)
            mask[: len(src)] = 1.0
        # Every decoder step reads the encoder's memory: the decoder stays
        # explicit nodes, not a run.
        shared = {"mem": NodeOutput(last, "mem"), "mask": ValueInput(mask)}
        ids, h, c = ValueInput(GO_TOKEN), NodeOutput(last, "h"), NodeOutput(last, "c")
        for _ in range(spec["tgt_len"]):
            node_id = graph.add_node(
                self._decoder_type, {**shared, "ids": ids, "h": h, "c": c}
            ).node_id
            graph.mark_result(node_id, "token")
            ids, h, c = (NodeOutput(node_id, name) for name in ("token", "h", "c"))

    def phases(self, payload: Any) -> List[Tuple[str, int]]:
        spec = self._normalize(payload)
        return [
            (ATTN_ENCODER_CELL, len(spec["src"])),
            (ATTN_DECODER_CELL, spec["tgt_len"]),
        ]

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        # Memory write adds a small constant to the encoder step; attention
        # adds ~15% to the decoder step (two thin matmuls + softmax over
        # max_src positions, dwarfed by the vocabulary projection).
        model.register(ATTN_ENCODER_CELL, v100_lstm_step_table().scale(1.05))
        model.register(ATTN_DECODER_CELL, seq2seq_decoder_step_table().scale(1.15))
        return model

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        if not self.real:
            return None
        spec = self._normalize(payload)
        h = np.zeros((1, self.hidden_dim), dtype=np.float32)
        c = np.zeros((1, self.hidden_dim), dtype=np.float32)
        mem = np.zeros((1, self.max_src, self.hidden_dim), dtype=np.float32)
        for position, token in enumerate(spec["src"]):
            out = self._encoder_cell(
                {
                    "ids": np.asarray([token]),
                    "h": h,
                    "c": c,
                    "mem": mem,
                    "pos": np.asarray([position]),
                }
            )
            h, c, mem = out["h"], out["c"], out["mem"]
        mask = np.zeros((1, self.max_src), dtype=np.float32)
        mask[0, : len(spec["src"])] = 1.0
        tokens: List[int] = []
        current = GO_TOKEN
        for _ in range(spec["tgt_len"]):
            out = self._decoder_cell(
                {
                    "ids": np.asarray([current]),
                    "h": h,
                    "c": c,
                    "mem": mem,
                    "mask": mask,
                }
            )
            h, c = out["h"], out["c"]
            current = int(out["token"][0])
            tokens.append(current)
        return tokens
