"""Tests for the offline profiler."""

import pytest

from repro.cells.lstm import LSTMCell
from repro.core.profiler import (
    ProfileResult,
    profile_cell,
    profile_cost_model,
    recommend_config,
)
from repro.models import Seq2SeqModel
from repro.tensor.parameters import ParameterStore


class TestProfileResult:
    def test_best_batch_prefers_smallest_at_peak(self):
        # Equal throughput at 4 and 8: pick 4 (less latency).
        profile = ProfileResult("c", [(1, 1.0), (4, 2.0), (8, 4.0)])
        assert profile.best_batch() == 4

    def test_throughput_lookup(self):
        profile = ProfileResult("c", [(2, 1.0)])
        assert profile.throughput(2) == 2.0
        with pytest.raises(KeyError):
            profile.throughput(3)

    def test_empty_profile_raises(self):
        with pytest.raises(ValueError):
            ProfileResult("c", [])


class TestProfileCostModel:
    def test_recovers_paper_batch_choices(self):
        model = Seq2SeqModel()
        profiles = profile_cost_model(
            model.default_cost_model(), ["encoder", "decoder"]
        )
        assert profiles["encoder"].best_batch() == 512
        assert profiles["decoder"].best_batch() == 256

    def test_recommend_config_builds_per_cell_settings(self):
        model = Seq2SeqModel()
        profiles = profile_cost_model(
            model.default_cost_model(), ["encoder", "decoder"]
        )
        config = recommend_config(profiles, priorities={"decoder": 1})
        assert config.for_cell("encoder").max_batch == 512
        assert config.for_cell("decoder").max_batch == 256
        assert config.for_cell("decoder").priority == 1
        assert config.max_tasks_to_submit == 5


class TestProfileRealCell:
    def test_profile_measures_real_cell(self):
        cell = LSTMCell("p", 8, 8, ParameterStore(seed=0))
        profile = profile_cell(cell, candidates=(1, 4), repeats=1)
        assert len(profile.points) == 2
        assert all(t > 0 for _, t in profile.points)

    def test_unknown_shape_requires_input_maker(self):
        from repro.cells.base import Cell

        class ShapelessCell(Cell):
            def __init__(self):
                super().__init__("s", ("x",), ("y",))

            def compute(self, inputs):
                return {"y": inputs["x"]}

            def num_operators(self):
                return 1

        with pytest.raises(ValueError, match="input_maker"):
            profile_cell(ShapelessCell(), candidates=(1,), repeats=1)
