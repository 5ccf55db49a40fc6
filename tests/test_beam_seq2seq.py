"""Tests for the beam-search Seq2Seq extension."""

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.models.beam_seq2seq import BeamSelectCell, BeamSeq2SeqModel
from tests.retention_helpers import keep_engine_state


@pytest.fixture
def beam_model():
    return BeamSeq2SeqModel(
        hidden_dim=12,
        src_vocab_size=25,
        tgt_vocab_size=25,
        embed_dim=6,
        beam_width=3,
        real=True,
        seed=9,
    )


class TestBeamSelectCell:
    def test_output_shapes(self):
        cell = BeamSelectCell("sel", 2, 3, vocab_size=7)
        rng = np.random.default_rng(0)
        out = cell(
            {
                "logits_0": rng.standard_normal((4, 7)),
                "logits_1": rng.standard_normal((4, 7)),
                "prev_scores": np.zeros((4, 2)),
            }
        )
        assert out["tokens"].shape == (4, 3)
        assert out["parents"].shape == (4, 3)
        assert out["scores"].shape == (4, 3)
        assert out["token_1"].shape == (4,)

    def test_scores_sorted_descending(self):
        cell = BeamSelectCell("sel", 2, 4, vocab_size=9)
        rng = np.random.default_rng(1)
        out = cell(
            {
                "logits_0": rng.standard_normal((3, 9)),
                "logits_1": rng.standard_normal((3, 9)),
                "prev_scores": rng.standard_normal((3, 2)),
            }
        )
        scores = out["scores"]
        assert np.all(np.diff(scores, axis=1) <= 1e-9)

    def test_parents_in_range(self):
        cell = BeamSelectCell("sel", 3, 3, vocab_size=5)
        rng = np.random.default_rng(2)
        out = cell(
            {
                "logits_0": rng.standard_normal((2, 5)),
                "logits_1": rng.standard_normal((2, 5)),
                "logits_2": rng.standard_normal((2, 5)),
                "prev_scores": np.zeros((2, 3)),
            }
        )
        assert out["parents"].min() >= 0
        assert out["parents"].max() < 3

    def test_single_beam_selects_argmax_first(self):
        cell = BeamSelectCell("sel", 1, 2, vocab_size=6)
        logits = np.array([[0.0, 5.0, 1.0, -2.0, 0.5, 0.2]])
        out = cell({"logits_0": logits, "prev_scores": np.zeros((1, 1))})
        assert out["tokens"][0, 0] == 1  # best continuation first

    def test_invalid_arity_raises(self):
        with pytest.raises(ValueError):
            BeamSelectCell("sel", 0, 2, vocab_size=5)


class TestBeamServing:
    def test_served_beam_search_matches_reference(self, beam_model):
        server = BatchMakerServer(
            beam_model,
            config=BatchingConfig.with_max_batch(4),
            real_compute=True,
        )
        rng = np.random.default_rng(3)
        payloads = [
            {
                "src": [int(t) for t in rng.integers(0, 25, size=rng.integers(1, 7))],
                "max_steps": 6,
            }
            for _ in range(6)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            served = BeamSeq2SeqModel.decode_best(request)
            reference = beam_model.reference_forward(payload)
            assert served == reference

    def test_beam_graph_shape(self, beam_model):
        server = BatchMakerServer(
            beam_model,
            config=BatchingConfig.with_max_batch(8),
            real_compute=True,
        )
        keep = keep_engine_state(server)
        request = server.submit({"src": [1, 2, 3], "max_steps": 4})
        server.drain()
        census = keep.graph(request).cell_type_census()
        assert census["encoder"] == 3
        steps = keep.graph(request).beam_steps
        # Step 1 has a single decoder; later steps have beam_width each.
        assert census["bs_decoder"] == 1 + beam_model.beam_width * (steps - 1)
        assert census.get("bs_select_first", 0) == 1
        assert census.get("bs_select", 0) == steps - 1

    def test_eos_stops_decoding_early(self):
        model = BeamSeq2SeqModel(
            hidden_dim=8, src_vocab_size=10, tgt_vocab_size=10,
            embed_dim=4, beam_width=2, real=True, seed=0,
        )
        # Force <eos> to be the argmax everywhere by biasing the projection.
        model._base.params.get("dec/proj/b")[:] = 0.0
        model._base.params.get("dec/proj/b")[2] = 50.0  # EOS_TOKEN
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(4), real_compute=True
        )
        keep = keep_engine_state(server)
        request = server.submit({"src": [1, 2], "max_steps": 9})
        server.drain()
        assert keep.graph(request).beam_steps == 1  # stopped immediately after eos

    def test_simulation_only_mode_completes(self):
        model = BeamSeq2SeqModel(beam_width=4)
        server = BatchMakerServer(model, config=BatchingConfig.with_max_batch(64))
        keep = keep_engine_state(server)
        request = server.submit({"src": 5, "max_steps": 6})
        server.drain()
        assert request.state.value == "finished"
        census = keep.graph(request).cell_type_census()
        assert census["bs_decoder"] == 1 + 4 * 5

    def test_beams_of_different_requests_batch_together(self, beam_model):
        server = BatchMakerServer(
            beam_model,
            config=BatchingConfig.with_max_batch(16),
            real_compute=True,
        )
        for i in range(5):
            server.submit({"src": [1, 2], "max_steps": 4}, arrival_time=0.0)
        server.drain()
        assert server.mean_batch_size() > 1.0
