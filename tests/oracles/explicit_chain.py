"""The per-step unfolds, kept as the oracles for run-length chains.

Until run-length chains (DESIGN.md, "Run-length chains") these were the
models' own ``unfold``: one ``add_node`` per step, each with its own
``inputs`` dict — ``LSTMChainModel`` first, then (DESIGN.md §33) the GRU
chain, the Seq2Seq encoder and static decoder, the attention encoder and
the beam encoder.  ``tests/test_chain_runs.py`` holds the run-length forms
to them — same graph view, same outcome fingerprints, same computed
values — and ``tests/test_subgraph_ready_invariants.py`` serves the explicit
Seq2Seq to keep the generic ``Subgraph`` under random interleavings.
"""

from typing import Any

import numpy as np

from repro.core.cell_graph import CellGraph, NodeOutput, ValueInput
from repro.models import (
    AttentionSeq2SeqModel,
    BeamSeq2SeqModel,
    GRUChainModel,
    LSTMChainModel,
    Seq2SeqModel,
)
from repro.models.base import tokens_field
from repro.models.seq2seq import GO_TOKEN


def _explicit_lstm_encoder(graph: CellGraph, cell_type, src, zeros) -> int:
    """One node per source token, each reading its predecessor's h and c;
    returns the last node's id."""
    prev = None
    for token in src:
        inputs = {"ids": ValueInput(token)}
        if prev is None:
            inputs["h"] = ValueInput(zeros)
            inputs["c"] = ValueInput(zeros)
        else:
            inputs["h"] = NodeOutput(prev.node_id, "h")
            inputs["c"] = NodeOutput(prev.node_id, "c")
        prev = graph.add_node(cell_type, inputs)
    return prev.node_id


class ExplicitChainModel(LSTMChainModel):
    """``LSTMChainModel`` that materialises every step as an explicit node."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        tokens = tokens_field(payload, "tokens")
        zeros = self._initial_state["h"].value
        last = _explicit_lstm_encoder(graph, self._step_type, tokens, zeros)
        if self._proj_type is not None:
            proj = graph.add_node(self._proj_type, {"h": NodeOutput(last, "h")})
            graph.mark_result(proj.node_id, "token")
        else:
            graph.mark_result(last, "h")


class ExplicitGRUModel(GRUChainModel):
    """``GRUChainModel`` with one explicit node per token."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        tokens = tokens_field(payload, "tokens")
        zeros = self._initial_state["h"].value
        prev = None
        for token in tokens:
            inputs = {"ids": ValueInput(token)}
            if prev is None:
                inputs["h"] = ValueInput(zeros)
            else:
                inputs["h"] = NodeOutput(prev.node_id, "h")
            prev = graph.add_node(self._step_type, inputs)
        graph.mark_result(prev.node_id, "h")


class ExplicitSeq2SeqModel(Seq2SeqModel):
    """``Seq2SeqModel`` with one explicit node per encoder and decoder step
    (a dynamic payload's first decoder, as in the model, grows by
    ``extend``)."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        zeros = self._initial_state["h"].value
        last = _explicit_lstm_encoder(graph, self._encoder_type, spec["src"], zeros)
        node = graph.add_node(
            self._decoder_type,
            {
                "ids": ValueInput(GO_TOKEN),
                "h": NodeOutput(last, "h"),
                "c": NodeOutput(last, "c"),
            },
        )
        graph.mark_result(node.node_id, "token")
        if spec["dynamic"]:
            return  # grows via extend()
        for _ in range(spec["tgt_len"] - 1):
            node = graph.add_node(
                self._decoder_type,
                {
                    "ids": NodeOutput(node.node_id, "token"),
                    "h": NodeOutput(node.node_id, "h"),
                    "c": NodeOutput(node.node_id, "c"),
                },
            )
            graph.mark_result(node.node_id, "token")


class ExplicitAttentionModel(AttentionSeq2SeqModel):
    """``AttentionSeq2SeqModel`` with one explicit node per encoder step."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        zeros = self._initial_state["h"].value
        empty_mem = self._initial_state["mem"].value
        prev = None
        for position, token in enumerate(spec["src"]):
            inputs = {"ids": ValueInput(token), "pos": ValueInput(position)}
            if prev is None:
                inputs.update(
                    h=ValueInput(zeros), c=ValueInput(zeros), mem=ValueInput(empty_mem)
                )
            else:
                inputs.update(
                    h=NodeOutput(prev.node_id, "h"),
                    c=NodeOutput(prev.node_id, "c"),
                    mem=NodeOutput(prev.node_id, "mem"),
                )
            prev = graph.add_node(self._encoder_type, inputs)

        mask = None
        if self.real:
            mask = np.zeros(self.max_src, dtype=np.float32)
            mask[: len(spec["src"])] = 1.0
        node = None
        for _ in range(spec["tgt_len"]):
            inputs = {
                "mem": NodeOutput(prev.node_id, "mem"),
                "mask": ValueInput(mask),
            }
            if node is None:
                inputs.update(
                    ids=ValueInput(GO_TOKEN),
                    h=NodeOutput(prev.node_id, "h"),
                    c=NodeOutput(prev.node_id, "c"),
                )
            else:
                inputs.update(
                    ids=NodeOutput(node.node_id, "token"),
                    h=NodeOutput(node.node_id, "h"),
                    c=NodeOutput(node.node_id, "c"),
                )
            node = graph.add_node(self._decoder_type, inputs)
            graph.mark_result(node.node_id, "token")


class ExplicitBeamModel(BeamSeq2SeqModel):
    """``BeamSeq2SeqModel`` with one explicit node per encoder step."""

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        spec = self._normalize(payload)
        zeros = self._base._initial_state["h"].value
        last = _explicit_lstm_encoder(graph, self._encoder_type, spec["src"], zeros)
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
        graph.beam_decoders = {select.node_id: [first_decoder.node_id]}
        graph.beam_steps = 1
