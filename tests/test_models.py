"""Tests for the model zoo: unfolding, phases, payload validation."""

import numpy as np
import pytest

from repro.core.cell_graph import CellGraph
from repro.core.request import PayloadError
from repro.models import (
    AttentionSeq2SeqModel,
    BeamSeq2SeqModel,
    GRUChainModel,
    LSTMChainModel,
    Seq2SeqModel,
    TreeLSTMModel,
)
from repro.models import seq2seq
from repro.models.seq2seq import EOS_TOKEN, GO_TOKEN, _normalize_payload
from repro.models.tree_lstm import TreeNodeSpec, TreePayload
from repro.registry import build_server, presets
from repro.workload import LoadGenerator, Seq2SeqDataset

from tests.oracles.node_tree import depth


def unfold(model, payload):
    graph = CellGraph()
    model.unfold(graph, payload)
    return graph


class TestLSTMChainModel:
    def test_unfold_length(self):
        graph = unfold(LSTMChainModel(), 7)
        assert len(graph) == 7

    def test_unfold_token_list(self):
        graph = unfold(LSTMChainModel(), [4, 5, 6])
        assert len(graph) == 3

    def test_zero_length_raises(self):
        with pytest.raises(ValueError):
            unfold(LSTMChainModel(), 0)

    def test_empty_token_list_raises(self):
        with pytest.raises(ValueError):
            unfold(LSTMChainModel(), [])

    def test_phases(self):
        assert LSTMChainModel().phases(12) == [("lstm", 12)]

    def test_phases_with_projection(self):
        model = LSTMChainModel(project_output=True)
        assert model.phases(12) == [("lstm", 12), ("lstm_proj", 1)]

    def test_projection_adds_node_and_cell_type(self):
        model = LSTMChainModel(project_output=True)
        graph = unfold(model, 4)
        assert len(graph) == 5
        assert {ct.name for ct in model.cell_types()} == {"lstm", "lstm_proj"}

    def test_default_cost_model_covers_cells(self):
        model = LSTMChainModel(project_output=True)
        cost = model.default_cost_model()
        for ct in model.cell_types():
            assert cost.kernel_time(ct.name, 1) > 0

    def test_result_is_final_hidden_state(self):
        graph = unfold(LSTMChainModel(), 4)
        assert graph.result_refs == [(3, "h")]

    def test_total_cells(self):
        """What the padded baseline is told (``phases``) and what the
        engine unfolds agree on the number of cells in a request."""
        model = LSTMChainModel()
        assert sum(steps for _, steps in model.phases(9)) == len(unfold(model, 9)) == 9

    def test_sim_mode_has_no_reference(self):
        assert LSTMChainModel().reference_forward(3) is None


class TestSeq2SeqModel:
    def test_unfold_counts(self):
        graph = unfold(Seq2SeqModel(), {"src": 5, "tgt_len": 3})
        assert graph.cell_type_census() == {"encoder": 5, "decoder": 3}

    def test_tuple_shorthand(self):
        assert _normalize_payload((4, 2)) == {
            "src": [0, 0, 0, 0],
            "dynamic": False,
            "tgt_len": 2,
        }

    def test_missing_src_raises(self):
        with pytest.raises(ValueError, match="src"):
            _normalize_payload({"tgt_len": 3})

    def test_static_needs_tgt_len(self):
        with pytest.raises(ValueError, match="tgt_len"):
            _normalize_payload({"src": 3})

    def test_decoder_feeds_previous_token(self):
        graph = unfold(Seq2SeqModel(), {"src": 2, "tgt_len": 3})
        decoders = [i for i in range(len(graph)) if graph.cell_type_of(i).name == "decoder"]
        ids_ref = graph.inputs_of(decoders[1])["ids"]
        assert ids_ref.node_id == decoders[0]
        assert ids_ref.output == "token"

    def test_first_decoder_takes_go_token_and_encoder_state(self):
        graph = unfold(Seq2SeqModel(), {"src": 3, "tgt_len": 1})
        assert graph.cell_type_of(3).name == "decoder"
        assert graph.inputs_of(3)["ids"].value == GO_TOKEN
        assert graph.inputs_of(3)["h"].node_id == 2  # final encoder node

    def test_dynamic_unfolds_single_decoder(self):
        graph = unfold(Seq2SeqModel(), {"src": 4, "dynamic": True, "max_decode": 9})
        assert graph.cell_type_census() == {"encoder": 4, "decoder": 1}

    def test_extend_appends_decoder_until_budget(self):
        model = Seq2SeqModel()
        payload = {"src": 2, "dynamic": True, "max_decode": 2}
        graph = unfold(model, payload)
        assert graph.cell_type_of(2).name == "decoder"
        new = model.extend(graph, 2, payload)
        assert [node.node_id for node in new] == [3]
        assert graph.predecessors(3) == [2]
        # Budget now exhausted (2 decoders exist).
        assert model.extend(graph, 3, payload) == []

    def test_extend_stops_at_eos(self):
        model = Seq2SeqModel()
        payload = {"src": 2, "dynamic": True, "max_decode": 10}
        graph = unfold(model, payload)
        assert graph.cell_type_of(2).name == "decoder"
        graph.outputs[2] = {"token": np.asarray(EOS_TOKEN), "h": None, "c": None}
        assert model.extend(graph, 2, payload) == []
        graph.outputs[2]["token"] = np.asarray(EOS_TOKEN + 1)
        assert len(model.extend(graph, 2, payload)) == 1

    def test_extend_ignores_encoder_completions(self):
        model = Seq2SeqModel()
        payload = {"src": 2, "dynamic": True, "max_decode": 10}
        graph = unfold(model, payload)
        assert graph.cell_type_of(1).name == "encoder"
        assert model.extend(graph, 1, payload) == []

    def test_phases_static(self):
        model = Seq2SeqModel()
        assert model.phases({"src": 5, "tgt_len": 3}) == [
            ("encoder", 5),
            ("decoder", 3),
        ]

    def test_phases_dynamic_unsupported(self):
        with pytest.raises(NotImplementedError):
            Seq2SeqModel().phases({"src": 5, "dynamic": True})


def test_static_run_normalises_each_payload_once(monkeypatch):
    """``extend`` returns before reading the payload for a node it cannot
    grow: a static run used to normalise once per completed cell."""
    calls = []

    def counting(*args):
        calls.append(args[0])
        return normalize(*args)

    normalize = seq2seq._normalize_payload
    monkeypatch.setattr(seq2seq, "_normalize_payload", counting)
    server = build_server(presets.seq2seq_batchmaker_spec())
    LoadGenerator(rate=400.0, num_requests=60, seed=42).run(server, Seq2SeqDataset(seed=43))
    assert len(server.finished) == 60
    assert len(calls) == 60


# Every model's payload goes through ``repro.models.base.tokens_field`` and
# ``length_field``: model -> (payload holding a token field value, that
# field's name, its length field's name, payload holding a length value).
MISSING = object()
PAYLOADS = {
    "lstm": (LSTMChainModel, lambda v: v, "tokens", None, None),
    "gru": (GRUChainModel, lambda v: v, "tokens", None, None),
    "seq2seq": (
        Seq2SeqModel, lambda v: {"src": v, "tgt_len": 2}, "src",
        "tgt_len", lambda n: {"src": 3, "tgt_len": n},
    ),
    "attention": (
        AttentionSeq2SeqModel, lambda v: {"src": v, "tgt_len": 2}, "src",
        "tgt_len", lambda n: {"src": 3, "tgt_len": n},
    ),
    "beam": (
        BeamSeq2SeqModel, lambda v: {"src": v, "max_steps": 2}, "src",
        "max_steps", lambda n: {"src": 3, "max_steps": n},
    ),
}
BAD_TOKENS = ["12", "abc", True, 2.0, None, [], [1.7, 2.2], [1, True], ["1"], 0, -2]
BAD_LENGTHS = [0, -2, True, 1.5, "3", None, np.float64(2.0)]


def _without_missing(payload):
    return {k: v for k, v in payload.items() if v is not MISSING}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_one_payload_normaliser_refuses_alike(name):
    """A token field is a length or a non-empty sequence of integers; a
    length is an int >= 1, not a bool; every refusal is a ValueError that
    names the field."""
    model_cls, with_tokens, token_field, length_name, with_length = PAYLOADS[name]
    model = model_cls()
    for value in BAD_TOKENS:
        with pytest.raises(ValueError, match=token_field):
            unfold(model, with_tokens(value))
    if length_name is None:
        return
    bad_lengths = BAD_LENGTHS + ([] if name == "beam" else [MISSING])
    for value in bad_lengths:
        with pytest.raises(ValueError, match=length_name):
            unfold(model, _without_missing(with_length(value)))
    for payload in (None, 5, [1, 2], "src"):
        with pytest.raises(ValueError, match="src"):
            unfold(model, payload)


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_one_payload_normaliser_accepts_alike(name):
    model_cls, with_tokens, _, _, with_length = PAYLOADS[name]
    model = model_cls()
    for value in (3, np.int64(3), [4, 5, 6], (4, 5, 6), np.array([4, 5, 6])):
        graph = unfold(model, with_tokens(value))
        assert [graph.inputs_of(i)["ids"].value for i in range(3)] in (
            [0, 0, 0], [4, 5, 6],
        )
    if with_length is not None:
        assert len(unfold(model, with_length(np.int32(2)))) > 3


def test_dynamic_decode_budget_is_a_length():
    with pytest.raises(ValueError, match="max_decode"):
        unfold(Seq2SeqModel(), {"src": 3, "dynamic": True, "max_decode": 0})
    with pytest.raises(ValueError, match="max_decode"):
        unfold(Seq2SeqModel(dynamic=True), {"src": 3, "tgt_len": True})


class TestTreeModel:
    def test_node_spec_validation(self):
        with pytest.raises(ValueError, match="either a leaf or internal"):
            TreeNodeSpec(token=1, left=TreeNodeSpec(token=2), right=TreeNodeSpec(token=3))
        with pytest.raises(ValueError, match="two children"):
            TreeNodeSpec(left=TreeNodeSpec(token=1))

    def test_complete_tree_counts(self):
        tree = TreePayload.complete(8)
        assert tree.num_leaves() == 8
        assert tree.num_nodes() == 15
        assert depth(tree) == 4

    def test_complete_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TreePayload.complete(6)

    def test_unfold_structure(self):
        model = TreeLSTMModel()
        graph = unfold(model, TreePayload.complete(4))
        assert graph.cell_type_census() == {"tree_leaf": 4, "tree_internal": 3}

    def test_unfold_rejects_non_tree_payload(self):
        with pytest.raises(PayloadError, match="TreePayload"):
            unfold(TreeLSTMModel(), 5)

    def test_padding_unsupported(self):
        with pytest.raises(NotImplementedError, match="padding"):
            TreeLSTMModel().phases(TreePayload.complete(2))

    def test_root_is_result(self):
        model = TreeLSTMModel()
        graph = unfold(model, TreePayload.complete(4))
        (result_ref,) = graph.result_refs
        node_id, output = result_ref
        assert output == "h"
        assert list(graph.successors(node_id)) == []

    def test_cell_type_by_name(self):
        """Cell types are looked up by name (the scheduler's queues, the
        cost model's tables): a model's names are distinct."""
        by_name = {ct.name: ct for ct in TreeLSTMModel().cell_types()}
        assert sorted(by_name) == ["tree_internal", "tree_leaf"]
        assert by_name["tree_leaf"].name == "tree_leaf"
