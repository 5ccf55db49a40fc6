"""Sequence-to-sequence model with feed-previous decoding (§7.4, Fig 12).

Two cell types — encoder (embedding + LSTM) and decoder (embedding + LSTM +
vocabulary projection + argmax) — that do not share weights.  The first
decoder cell consumes the encoder's final state and the <go> symbol; each
subsequent decoder cell feeds on the previous decoder's emitted token.

Two unfolding modes:

* **static** (paper's evaluation setting): the payload fixes the decode
  length ("we decode for a number of steps equal to the corresponding
  English sequence length"), so the whole graph is known at arrival and
  partitions into one encoder and one decoder subgraph.
* **dynamic** (our extension; the precursor of continuous batching): the
  graph grows one decoder cell at a time until <eos> is emitted or
  ``max_decode`` is reached.
"""

from __future__ import annotations

import reprlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.composite import CompositeCell
from repro.cells.embedding import EmbeddingCell
from repro.cells.lstm import LSTMCell
from repro.cells.projection import ProjectionCell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, CellNode, NodeOutput, RunShape, ValueInput
from repro.core.request import PayloadError
from repro.gpu.costmodel import (
    CostModel,
    seq2seq_decoder_step_table,
    v100_lstm_step_table,
)
from repro.models.base import Model, length_field, tokens_field
from repro.tensor.parameters import ParameterStore

ENCODER_CELL = "encoder"
DECODER_CELL = "decoder"

GO_TOKEN = 1
EOS_TOKEN = 2
_GO = ValueInput(GO_TOKEN)
# Each encoder step reads the previous step's state; each decoder step its
# state and, fed back, its emitted token.
_ENCODER_CARRIED = {"h": "h", "c": "c"}
_DECODER_CARRIED = {"ids": "token", "h": "h", "c": "c"}


def src_field(payload: Any) -> List[int]:
    """The source tokens of a payload that is a dict with ``src``."""
    if not isinstance(payload, dict) or "src" not in payload:
        raise PayloadError(f"payload needs a 'src' field, got {reprlib.repr(payload)}")
    return tokens_field(payload["src"], "src")


def _normalize_payload(
    payload: Any,
    dynamic_default: bool = False,
    max_decode_default: Optional[int] = None,
) -> Dict[str, Any]:
    """Canonicalise a Seq2Seq payload.

    Accepted forms: ``{"src": [...], "tgt_len": n}`` (static),
    ``{"src": [...], "dynamic": True, "max_decode": n}`` (dynamic), or the
    shorthand ``(src_len, tgt_len)`` tuple for simulation-only workloads.

    ``dynamic_default``/``max_decode_default`` are the model's constructor
    knobs (``Seq2SeqModel(dynamic=True, max_decode=N)``): a payload that
    does not say otherwise inherits them, which is how the registry turns a
    plain static-looking dataset into a dynamic-decode workload.  A
    dynamic payload's decode budget resolves as: its own ``max_decode``,
    else the model default, else its ``tgt_len``, else ``len(src) + 10``.
    """
    if isinstance(payload, tuple) and len(payload) == 2:
        payload = {"src": payload[0], "tgt_len": payload[1]}
    src_tokens = src_field(payload)
    norm = {"src": src_tokens, "dynamic": bool(payload.get("dynamic", dynamic_default))}
    if norm["dynamic"]:
        max_decode = payload.get("max_decode")
        if max_decode is None:
            max_decode = max_decode_default
        if max_decode is None:
            max_decode = payload.get("tgt_len")
        if max_decode is None:
            max_decode = len(src_tokens) + 10
        norm["max_decode"] = length_field(max_decode, "max_decode")
    else:
        norm["tgt_len"] = length_field(payload.get("tgt_len"), "tgt_len")
    return norm


class Seq2SeqModel(Model):
    """Encoder/decoder translation model."""

    def __init__(
        self,
        hidden_dim: int = 1024,
        src_vocab_size: int = 30000,
        tgt_vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        real: bool = False,
        seed: int = 0,
        dynamic: bool = False,
        max_decode: Optional[int] = None,
    ):
        self.name = "seq2seq"
        self.hidden_dim = hidden_dim
        self.src_vocab_size = src_vocab_size
        self.tgt_vocab_size = tgt_vocab_size
        self.embed_dim = embed_dim if embed_dim is not None else hidden_dim
        self.real = real
        # Default decode mode for payloads that don't choose one themselves;
        # the registry sets these via model_args to build a dynamic-decode
        # server from an ordinary (src, tgt_len) dataset.
        self.dynamic = dynamic
        self.max_decode = max_decode
        self.params = ParameterStore(seed=seed)
        # Every encoder starts from the zero state, shared by all requests.
        zeros = np.zeros(hidden_dim, dtype=np.float32) if real else None
        self._initial_state = {"h": ValueInput(zeros), "c": ValueInput(zeros)}

        if real:
            self._build_real_cells()
        else:
            self._encoder_type = CellType(
                ENCODER_CELL, ("ids", "h", "c"), ("h", "c"), num_operators=12
            )
            self._decoder_type = CellType(
                DECODER_CELL,
                ("ids", "h", "c"),
                ("h", "c", "token"),
                num_operators=15,
            )
        self._encoder_chain = RunShape(
            self._encoder_type, _ENCODER_CARRIED, ("ids",), self._initial_state
        )
        # The decoder starts from the encoder's last step: each request
        # brings its own initial values.
        self._decoder_chain = RunShape(self._decoder_type, _DECODER_CARRIED, ())

    def _build_real_cells(self) -> None:
        enc_embed = EmbeddingCell(
            "enc/embed", self.src_vocab_size, self.embed_dim, self.params
        )
        enc_lstm = LSTMCell("enc/step", self.embed_dim, self.hidden_dim, self.params)
        self._enc_cells = (enc_embed, enc_lstm)
        encoder = CompositeCell(
            ENCODER_CELL,
            input_names=("ids", "h", "c"),
            output_names=("h", "c"),
            stages=[
                (enc_embed, {"ids": ("external", "ids")}),
                (
                    enc_lstm,
                    {
                        "x": ("stage", 0, "emb"),
                        "h": ("external", "h"),
                        "c": ("external", "c"),
                    },
                ),
            ],
            exports={"h": ("stage", 1, "h"), "c": ("stage", 1, "c")},
        )
        dec_embed = EmbeddingCell(
            "dec/embed", self.tgt_vocab_size, self.embed_dim, self.params
        )
        dec_lstm = LSTMCell("dec/step", self.embed_dim, self.hidden_dim, self.params)
        dec_proj = ProjectionCell(
            "dec/proj", self.hidden_dim, self.tgt_vocab_size, self.params
        )
        self._dec_cells = (dec_embed, dec_lstm, dec_proj)
        self._encoder_type = CellType.from_cell(encoder)
        self._decoder_type = CellType.from_cell(self._decoder_cell(DECODER_CELL, "token"))

    def _decoder_cell(self, name: str, emits: str) -> CompositeCell:
        """The decoder step — embedding, LSTM, projection — as one cell whose
        third output is the projection's ``emits`` (``token`` here, the
        beam decoder's ``logits``)."""
        dec_embed, dec_lstm, dec_proj = self._dec_cells
        return CompositeCell(
            name,
            input_names=("ids", "h", "c"),
            output_names=("h", "c", emits),
            stages=[
                (dec_embed, {"ids": ("external", "ids")}),
                (
                    dec_lstm,
                    {
                        "x": ("stage", 0, "emb"),
                        "h": ("external", "h"),
                        "c": ("external", "c"),
                    },
                ),
                (dec_proj, {"h": ("stage", 1, "h")}),
            ],
            exports={
                "h": ("stage", 1, "h"),
                "c": ("stage", 1, "c"),
                emits: ("stage", 2, emits),
            },
        )

    # -- Model interface -----------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        return [self._encoder_type, self._decoder_type]

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        last = self._encode(graph, spec["src"])
        decoder_initial = {
            "ids": _GO,
            "h": NodeOutput(last, "h"),
            "c": NodeOutput(last, "c"),
        }
        if spec["dynamic"]:
            first_decoder = graph.add_node(self._decoder_type, decoder_initial)
            graph.mark_result(first_decoder.node_id, "token")
            return  # grows via extend()
        run = graph.add_run(
            self._decoder_chain, spec["tgt_len"], {}, initial=decoder_initial
        )
        for node_id in range(run.first_id, run.stop):
            graph.mark_result(node_id, "token")

    def extend(self, graph: CellGraph, node_id: int, payload: Any) -> List[CellNode]:
        # Only an explicit decoder step grows (a run — the encoder, a static
        # decoder — never does), and only then is the payload read.
        node = graph.explicit_nodes().get(node_id)
        if node is None or node.cell_type is not self._decoder_type:
            return []
        spec = self._normalize(payload)
        if not spec["dynamic"]:
            return []
        # Stop once <eos> was emitted or the decode budget is exhausted; every
        # node after the encoder's is a decoder step.
        if len(graph) - len(spec["src"]) >= spec["max_decode"]:
            return []
        if node_id in graph.outputs:
            token = int(np.asarray(graph.outputs[node_id]["token"]).reshape(()))
            if token == EOS_TOKEN:
                return []
        node = graph.add_node(
            self._decoder_type,
            {
                "ids": NodeOutput(node_id, "token"),
                "h": NodeOutput(node_id, "h"),
                "c": NodeOutput(node_id, "c"),
            },
        )
        graph.mark_result(node.node_id, "token")
        return [node]

    def phases(self, payload: Any) -> List[Tuple[str, int]]:
        spec = self._normalize(payload)
        if spec["dynamic"]:
            raise NotImplementedError(
                "padding baselines cannot serve dynamic-length decoding"
            )
        return [(ENCODER_CELL, len(spec["src"])), (DECODER_CELL, spec["tgt_len"])]

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        model.register(ENCODER_CELL, v100_lstm_step_table())
        model.register(DECODER_CELL, seq2seq_decoder_step_table())
        return model

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        if not self.real:
            return None
        spec = self._normalize(payload)
        dec_embed, dec_lstm, dec_proj = self._dec_cells
        h, c = self._reference_encode(spec["src"])
        tokens: List[int] = []
        current = GO_TOKEN
        steps = spec["max_decode"] if spec["dynamic"] else spec["tgt_len"]
        for _ in range(steps):
            emb = dec_embed({"ids": np.asarray([current])})["emb"]
            out = dec_lstm({"x": emb, "h": h, "c": c})
            h, c = out["h"], out["c"]
            token = int(dec_proj({"h": h})["token"][0])
            tokens.append(token)
            current = token
            if spec["dynamic"] and token == EOS_TOKEN:
                break
        return tokens

    # -- internals --------------------------------------------------------------

    def _normalize(self, payload: Any) -> Dict[str, Any]:
        return _normalize_payload(payload, self.dynamic, self.max_decode)

    def _encode(self, graph: CellGraph, src: List[int]) -> int:
        """Append the encoder over ``src`` as one run; returns the id of its
        last step, whose ``h`` and ``c`` the decoder starts from."""
        run = graph.add_run(self._encoder_chain, len(src), {"ids": src})
        return run.last_id

    def _reference_encode(self, src: List[int]) -> Tuple[Any, Any]:
        """The encoder's final ``(h, c)`` over ``src``, computed directly."""
        enc_embed, enc_lstm = self._enc_cells
        h = c = np.zeros((1, self.hidden_dim), dtype=np.float32)
        for token in src:
            emb = enc_embed({"ids": np.asarray([token])})["emb"]
            out = enc_lstm({"x": emb, "h": h, "c": c})
            h, c = out["h"], out["c"]
        return h, c
