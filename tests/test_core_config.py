"""Tests for the batching configuration."""

import pytest

from repro.core.config import BatchingConfig, CellTypeConfig
from repro.policies import bundle_from_names


class TestCellTypeConfig:
    def test_max_and_min(self):
        config = CellTypeConfig(batch_sizes=(1, 4, 16, 64))
        assert config.max_batch == 64
        assert config.min_batch == 1

    def test_sizes_are_sorted_and_deduped(self):
        config = CellTypeConfig(batch_sizes=(8, 2, 8, 4))
        assert config.batch_sizes == (2, 4, 8)

    def test_empty_sizes_raise(self):
        with pytest.raises(ValueError):
            CellTypeConfig(batch_sizes=())

    def test_nonpositive_sizes_raise(self):
        with pytest.raises(ValueError):
            CellTypeConfig(batch_sizes=(0, 2))


class TestBatchingConfig:
    def test_default_for_unknown_cell(self):
        config = BatchingConfig()
        assert config.for_cell("anything").max_batch == 512

    def test_per_cell_override(self):
        config = BatchingConfig(
            per_cell={"decoder": CellTypeConfig(batch_sizes=(1, 256), priority=1)}
        )
        assert config.for_cell("decoder").max_batch == 256
        assert config.for_cell("decoder").priority == 1
        assert config.for_cell("encoder").max_batch == 512

    def test_invalid_max_tasks_raises(self):
        with pytest.raises(ValueError):
            BatchingConfig(max_tasks_to_submit=0)

    def test_with_max_batch_builds_power_of_two_ladder(self):
        config = BatchingConfig.with_max_batch(64)
        assert config.default.batch_sizes == (1, 2, 4, 8, 16, 32, 64)

    def test_with_max_batch_non_power_of_two(self):
        config = BatchingConfig.with_max_batch(48)
        assert config.default.batch_sizes[-1] == 48

    def test_with_max_batch_per_cell_overrides(self):
        config = BatchingConfig.with_max_batch(
            512,
            per_cell_max={"decoder": 256},
            per_cell_priority={"decoder": 2, "encoder": 1},
        )
        assert config.for_cell("decoder").max_batch == 256
        assert config.for_cell("decoder").priority == 2
        assert config.for_cell("encoder").max_batch == 512
        assert config.for_cell("encoder").priority == 1

    def test_paper_default_max_tasks_is_five(self):
        assert BatchingConfig().max_tasks_to_submit == 5

    def test_pinning_default_on(self):
        """Pinning is a placement policy, on by default, not a config flag."""
        assert bundle_from_names().placement.name == "pinned"
        assert "pinning" not in BatchingConfig().to_dict()
        with pytest.raises(ValueError, match="pinning"):
            BatchingConfig.from_dict({"pinning": True})


class TestFromDictRejectsUnknownKeys:
    """``from_dict`` reads stored, hand-edited JSON: a key it does not know
    is a typo or a removed option, not a request for the default."""

    def test_round_trip_still_exact(self):
        config = BatchingConfig.with_max_batch(
            64, per_cell_max={"decoder": 32}, max_tasks_to_submit=3
        )
        assert BatchingConfig.from_dict(config.to_dict()) == config
        assert BatchingConfig.from_dict({}) == BatchingConfig()

    @pytest.mark.parametrize("key", ["max_task_to_submit", "fast_path", "pinning"])
    def test_batching_config_names_the_key_and_the_accepted_ones(self, key):
        stored = BatchingConfig().to_dict()
        stored[key] = False
        with pytest.raises(ValueError) as excinfo:
            BatchingConfig.from_dict(stored)
        message = str(excinfo.value)
        assert key in message
        for accepted in ("default", "per_cell", "max_tasks_to_submit"):
            assert accepted in message

    def test_cell_type_config_names_the_key_and_the_accepted_ones(self):
        with pytest.raises(ValueError, match="batch_size.*batch_sizes.*priority"):
            CellTypeConfig.from_dict({"batch_size": [1, 2]})

    def test_nested_cell_blocks_are_checked_too(self):
        stored = BatchingConfig().to_dict()
        stored["default"]["prio"] = 1
        with pytest.raises(ValueError, match="prio"):
            BatchingConfig.from_dict(stored)
        stored = BatchingConfig().to_dict()
        stored["per_cell"] = {"decoder": {"batch_sizes": [1], "max": 4}}
        with pytest.raises(ValueError, match="max"):
            BatchingConfig.from_dict(stored)

    def test_the_removed_option_is_rejected_by_the_constructors(self):
        with pytest.raises(TypeError, match="fast_path"):
            BatchingConfig(fast_path=False)
        with pytest.raises(TypeError, match="fast_path"):
            BatchingConfig.with_max_batch(64, fast_path=False)
        with pytest.raises(TypeError, match="pinning"):
            BatchingConfig(pinning=False)
        with pytest.raises(TypeError, match="pinning"):
            BatchingConfig.with_max_batch(64, pinning=False)
