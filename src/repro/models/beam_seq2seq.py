"""Beam-search Seq2Seq decoding on top of cellular batching (extension).

The paper decodes greedily (argmax).  Beam search is the natural extension
and the hardest case for cell-level batching: the decode-side cell graph
*branches* — each step runs one decoder cell per beam plus a selection cell
that prunes to the top-k continuations, and the wiring of step t+1 depends
on data produced at step t (which parent beam each survivor extends).

Cellular batching handles this with the dynamic-unfolding hook: when a
selection cell completes, ``extend`` reads its outputs (tokens, parent
indices, scores) and appends the next step's decoder cells wired to the
selected parents, plus the next selection cell.  Decoder cells of *other*
requests batch with these freely; selection cells batch with other
requests' selection cells of the same arity.

Simplifications versus production beam search: beams are length-synchronous
and decoding stops when the highest-scoring beam emits <eos> (finished
side beams are not frozen), which keeps every step exactly k decoder cells.
In simulation-only mode (no real compute) the data-dependent wiring is
unavailable, so beams chain linearly (j -> j) — timing behaviour is
preserved, token values are not produced.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.base import Cell
from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, CellNode, NodeOutput, ValueInput
from repro.gpu.costmodel import (
    CostModel,
    seq2seq_decoder_step_table,
    v100_lstm_step_table,
)
from repro.models.base import Model, length_field
from repro.models.seq2seq import EOS_TOKEN, GO_TOKEN, Seq2SeqModel, src_field
from repro.tensor import ops

BEAM_DECODER_CELL = "bs_decoder"
FIRST_SELECT_CELL = "bs_select_first"
SELECT_CELL = "bs_select"


class BeamSelectCell(Cell):
    """Top-k continuation selection across ``k_in`` beams.

    Inputs: ``logits_i`` (batch, vocab) for each incoming beam, plus
    ``prev_scores`` (batch, k_in).  Outputs per surviving beam j:
    ``token_j`` (batch,), and jointly ``tokens``/``parents`` (batch, k_out)
    and ``scores`` (batch, k_out) of accumulated log-probabilities.
    """

    def __init__(self, name: str, k_in: int, k_out: int, vocab_size: int):
        if min(k_in, k_out, vocab_size) < 1:
            raise ValueError("k_in, k_out and vocab_size must be >= 1")
        inputs = [f"logits_{i}" for i in range(k_in)] + ["prev_scores"]
        outputs = (
            [f"token_{j}" for j in range(k_out)]
            + ["tokens", "parents", "scores"]
        )
        super().__init__(name, inputs, outputs)
        self.k_in = k_in
        self.k_out = k_out
        self.vocab_size = vocab_size

    def num_operators(self) -> int:
        return 4  # log_softmax, add, top-k, split

    def input_shape(self, name: str) -> Optional[Tuple[int, ...]]:
        if name == "prev_scores":
            return (self.k_in,)
        return (self.vocab_size,)

    def compute(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        batch = inputs["prev_scores"].shape[0]
        # (batch, k_in, vocab) accumulated scores.
        log_probs = np.stack(
            [ops.log_softmax(inputs[f"logits_{i}"]) for i in range(self.k_in)],
            axis=1,
        )
        combined = inputs["prev_scores"][:, :, None] + log_probs
        flat = combined.reshape(batch, self.k_in * self.vocab_size)
        top = np.argsort(-flat, axis=1)[:, : self.k_out]
        parents = top // self.vocab_size
        tokens = top % self.vocab_size
        scores = np.take_along_axis(flat, top, axis=1)
        result: Dict[str, np.ndarray] = {
            "tokens": tokens,
            "parents": parents,
            "scores": scores,
        }
        for j in range(self.k_out):
            result[f"token_{j}"] = tokens[:, j]
        return result


class BeamSeq2SeqModel(Model):
    """Seq2Seq with beam-search decoding served via cellular batching.

    Payloads: ``{"src": [...], "beam": k, "max_steps": n}``.
    """

    def __init__(
        self,
        hidden_dim: int = 1024,
        src_vocab_size: int = 30000,
        tgt_vocab_size: int = 30000,
        embed_dim: Optional[int] = None,
        beam_width: int = 4,
        real: bool = False,
        seed: int = 0,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.name = "beam-seq2seq"
        self.beam_width = beam_width
        self.tgt_vocab_size = tgt_vocab_size
        self.real = real
        # Reuse the plain Seq2Seq cells for the encoder and the decoder body
        # (shared weights across every beam, as beam search requires).
        self._base = Seq2SeqModel(
            hidden_dim=hidden_dim,
            src_vocab_size=src_vocab_size,
            tgt_vocab_size=tgt_vocab_size,
            embed_dim=embed_dim,
            real=real,
            seed=seed,
        )
        self.hidden_dim = self._base.hidden_dim
        self._encoder_type = self._base._encoder_type

        if real:
            # The decoder exposes logits instead of the argmax token.
            self._decoder_type = CellType.from_cell(
                self._base._decoder_cell(BEAM_DECODER_CELL, "logits")
            )
            self._first_select_type = CellType.from_cell(
                BeamSelectCell(FIRST_SELECT_CELL, 1, beam_width, tgt_vocab_size)
            )
            self._select_type = CellType.from_cell(
                BeamSelectCell(SELECT_CELL, beam_width, beam_width, tgt_vocab_size)
            )
        else:
            self._decoder_type = CellType(
                BEAM_DECODER_CELL, ("ids", "h", "c"), ("h", "c", "logits"),
                num_operators=15,
            )
            first = BeamSelectCell("spec1", 1, beam_width, tgt_vocab_size)
            later = BeamSelectCell("speck", beam_width, beam_width, tgt_vocab_size)
            self._first_select_type = CellType(
                FIRST_SELECT_CELL, first.input_names, first.output_names,
                num_operators=4,
            )
            self._select_type = CellType(
                SELECT_CELL, later.input_names, later.output_names,
                num_operators=4,
            )

    # -- Model interface ----------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        return [
            self._encoder_type,
            self._decoder_type,
            self._first_select_type,
            self._select_type,
        ]

    def _normalize(self, payload: Any) -> Dict[str, Any]:
        src_tokens = src_field(payload)
        max_steps = payload.get("max_steps", len(src_tokens) + 10)
        return {"src": src_tokens, "max_steps": length_field(max_steps, "max_steps")}

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        last = self._base._encode(graph, spec["src"])
        first_decoder = graph.add_node(
            self._decoder_type,
            {
                "ids": ValueInput(GO_TOKEN),
                "h": NodeOutput(last, "h"),
                "c": NodeOutput(last, "c"),
            },
        )
        select = graph.add_node(
            self._first_select_type,
            {
                "logits_0": NodeOutput(first_decoder.node_id, "logits"),
                "prev_scores": ValueInput(
                    np.zeros(1, dtype=np.float32) if self.real else None
                ),
            },
        )
        graph.mark_result(select.node_id, "tokens")
        graph.mark_result(select.node_id, "parents")
        # Per-request beam bookkeeping lives on the graph itself.
        graph.beam_decoders = {select.node_id: [first_decoder.node_id]}
        graph.beam_steps = 1

    def extend(self, graph: CellGraph, node_id: int, payload: Any) -> List[CellNode]:
        if graph.cell_type_of(node_id).name not in (FIRST_SELECT_CELL, SELECT_CELL):
            return []
        spec = self._normalize(payload)
        if graph.beam_steps >= spec["max_steps"]:
            return []
        outputs = graph.outputs.get(node_id)
        if outputs is not None:
            best_token = int(np.asarray(outputs["tokens"]).reshape(-1)[0])
            if best_token == EOS_TOKEN:
                return []

        k = self.beam_width
        prev_decoders = graph.beam_decoders[node_id]
        if outputs is not None:
            parents = [int(p) for p in np.asarray(outputs["parents"]).reshape(-1)[:k]]
        else:
            # Simulation-only: linear wiring preserves the graph's shape.
            parents = [min(j, len(prev_decoders) - 1) for j in range(k)]

        new_nodes: List[CellNode] = []
        decoder_ids = []
        for j in range(k):
            parent_node_id = prev_decoders[parents[j]]
            decoder = graph.add_node(
                self._decoder_type,
                {
                    "ids": NodeOutput(node_id, f"token_{j}"),
                    "h": NodeOutput(parent_node_id, "h"),
                    "c": NodeOutput(parent_node_id, "c"),
                },
            )
            decoder_ids.append(decoder.node_id)
            new_nodes.append(decoder)
        select_inputs: Dict[str, Any] = {
            f"logits_{j}": NodeOutput(decoder_ids[j], "logits") for j in range(k)
        }
        select_inputs["prev_scores"] = NodeOutput(node_id, "scores")
        select = graph.add_node(self._select_type, select_inputs)
        graph.mark_result(select.node_id, "tokens")
        graph.mark_result(select.node_id, "parents")
        new_nodes.append(select)
        graph.beam_decoders[select.node_id] = decoder_ids
        graph.beam_steps += 1
        return new_nodes

    def default_cost_model(self) -> CostModel:
        model = CostModel()
        model.register("encoder", v100_lstm_step_table())
        model.register(BEAM_DECODER_CELL, seq2seq_decoder_step_table())
        # Selection is a top-k over (k x vocab): cheap relative to matmuls.
        select_table = seq2seq_decoder_step_table().scale(0.1, name="bs-select")
        model.register(FIRST_SELECT_CELL, select_table)
        model.register(SELECT_CELL, select_table)
        return model

    # -- result decoding ------------------------------------------------------

    @staticmethod
    def decode_best(request) -> List[int]:
        """Backtrack the highest-scoring beam from a finished request.

        ``request.result`` holds (tokens, parents) per step in order; the
        best beam at the final step is index 0 (selection sorts by score).
        """
        if request.result is None:
            raise ValueError("request has no results (simulation-only run?)")
        steps = [
            (np.asarray(request.result[i]), np.asarray(request.result[i + 1]))
            for i in range(0, len(request.result), 2)
        ]
        sequence: List[int] = []
        beam = 0
        for tokens, parents in reversed(steps):
            sequence.append(int(tokens.reshape(-1)[beam]))
            beam = int(parents.reshape(-1)[beam])
        sequence.reverse()
        return sequence

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        """Direct (unserved) beam search, for correctness comparison."""
        if not self.real:
            return None
        spec = self._normalize(payload)
        dec_embed, dec_lstm, dec_proj = self._base._dec_cells
        h, c = self._base._reference_encode(spec["src"])
        k = self.beam_width
        # Beam state: (score, tokens, h, c, last_token)
        beams = [(0.0, [], h, c, GO_TOKEN)]
        for step in range(spec["max_steps"]):
            candidates = []
            for score, tokens, bh, bc, last in beams:
                emb = dec_embed({"ids": np.asarray([last])})["emb"]
                out = dec_lstm({"x": emb, "h": bh, "c": bc})
                logits = dec_proj({"h": out["h"]})["logits"][0]
                log_probs = ops.log_softmax(logits[None, :])[0]
                order = np.argsort(-(score + log_probs))[: k]
                for token in order:
                    candidates.append(
                        (
                            score + float(log_probs[token]),
                            tokens + [int(token)],
                            out["h"],
                            out["c"],
                            int(token),
                        )
                    )
            candidates.sort(key=lambda b: -b[0])
            beams = candidates[:k]
            if beams[0][4] == EOS_TOKEN:
                break
        return beams[0][1]
