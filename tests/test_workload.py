"""Tests for workload generation: lengths, arrivals, trees, datasets."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    FixedLengthDataset,
    PoissonArrivals,
    Seq2SeqDataset,
    SequenceDataset,
    TreeDataset,
    WMTLengthSampler,
)
from repro.workload.lengths import length_cdf
from repro.workload.trees import TreeBankSampler, random_parse_tree
from tests.oracles.closure_parse_tree import closure_parse_tree
from tests.oracles.node_tree import flatten_tree


class TestWMTLengths:
    def test_calibration_matches_paper_statistics(self):
        lengths = WMTLengthSampler(seed=0).sample(100000)
        assert np.mean(lengths) == pytest.approx(24, abs=1.5)
        assert np.percentile(lengths, 99) <= 110
        assert lengths.max() <= 330
        assert lengths.min() >= 1
        assert np.mean(lengths < 100) > 0.985

    def test_seeded_determinism(self):
        a = WMTLengthSampler(seed=3).sample(100)
        b = WMTLengthSampler(seed=3).sample(100)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = WMTLengthSampler(seed=1).sample(100)
        b = WMTLengthSampler(seed=2).sample(100)
        assert not np.array_equal(a, b)

    def test_clipping_to_max_length(self):
        lengths = WMTLengthSampler(seed=0, max_length=50).sample(10000)
        assert lengths.max() <= 50

    def test_invalid_max_length_raises(self):
        with pytest.raises(ValueError):
            WMTLengthSampler(max_length=0)
        with pytest.raises(ValueError):
            WMTLengthSampler(max_length=500)

    def test_sample_requires_positive_n(self):
        with pytest.raises(ValueError):
            WMTLengthSampler().sample(0)

    def test_length_cdf_shape(self):
        points = length_cdf([1, 1, 2, 3])
        assert points[0] == (1, 0.5)
        assert points[-1] == (3, 1.0)

    def test_length_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            length_cdf([])


class TestPoissonArrivals:
    def test_mean_rate(self):
        times = PoissonArrivals(rate=1000, seed=0).times(20000)
        assert times[-1] == pytest.approx(20.0, rel=0.05)

    def test_times_are_increasing(self):
        times = PoissonArrivals(rate=50, seed=1).times(500)
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_start_offset(self):
        times = PoissonArrivals(rate=10, seed=0, start=5.0).times(10)
        assert times[0] > 5.0

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0)


class TestTrees:
    def test_random_parse_tree_leaf_count(self):
        rng = np.random.default_rng(0)
        for leaves in (1, 2, 7, 20):
            payload = random_parse_tree(rng, leaves)
            assert payload.num_leaves() == leaves
            assert payload.num_nodes() == 2 * leaves - 1

    def test_invalid_leaf_count_raises(self):
        with pytest.raises(ValueError):
            random_parse_tree(np.random.default_rng(0), 0)

    def test_sampling_leaves_no_cyclic_garbage(self):
        """A sampled tree is freed by reference count: with the collector
        off, 500 trees leave nothing for it to find."""
        sampler = TreeBankSampler(seed=3)
        gc.collect()
        gc.disable()
        try:
            for _ in range(500):
                sampler.sample_one()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_same_trees_as_the_closure_sampler(self):
        """Same draws in the same order as the nested-closure version it
        replaced: every payload, the corpus and the ledger rows stay put
        (``tests/test_tree_runs.py`` widens this over the chaos seeds)."""
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for leaves in [1, 2, 3, 7, 20, 70] * 20:
            got = random_parse_tree(ours, leaves, 97)
            want = flatten_tree(closure_parse_tree(theirs, leaves, 97))
            assert (got.left, got.right, got.token) == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_treebank_sampler_statistics(self):
        sampler = TreeBankSampler(seed=0)
        leaves = [sampler.sample_one().num_leaves() for _ in range(2000)]
        assert 15 < np.mean(leaves) < 25
        assert max(leaves) <= 70

    def test_fixed_leaves(self):
        sampler = TreeBankSampler(seed=0, fixed_leaves=12)
        assert all(
            sampler.sample_one().num_leaves() == 12 for _ in range(5)
        )

    @pytest.mark.parametrize("fixed_leaves", [0, -3])
    def test_fixed_leaves_below_one_is_refused_at_construction(self, fixed_leaves):
        with pytest.raises(ValueError, match="fixed_leaves"):
            TreeBankSampler(seed=0, fixed_leaves=fixed_leaves)

    @pytest.mark.parametrize("vocab_size", [0, 2**32 + 1])
    def test_vocab_size_outside_the_32_bit_draw_is_refused_at_construction(self, vocab_size):
        with pytest.raises(ValueError, match="vocab_size"):
            TreeBankSampler(seed=0, vocab_size=vocab_size)


class TestDatasets:
    def test_sequence_dataset_lengths(self):
        dataset = SequenceDataset(seed=0)
        samples = [dataset.sample_one() for _ in range(100)]
        assert all(isinstance(s, (int, np.integer)) and s >= 1 for s in samples)

    def test_sequence_dataset_tokens_mode(self):
        dataset = SequenceDataset(seed=0, emit_tokens=True, vocab_size=100)
        sample = dataset.sample_one()
        assert isinstance(sample, list)
        assert all(0 <= t < 100 for t in sample)

    def test_sequence_dataset_tokens_are_the_drawn_ints(self):
        """``tolist`` gives the ints one ``int()`` per token gave."""
        dataset = SequenceDataset(seed=5, emit_tokens=True, vocab_size=97)
        lengths = WMTLengthSampler(seed=5)
        rng = np.random.default_rng(6)
        for _ in range(300):
            want = [int(t) for t in rng.integers(0, 97, size=lengths.sample_one())]
            got = dataset.sample_one()
            assert got == want
            assert all(type(t) is int for t in got)

    def test_fixed_length_dataset(self):
        dataset = FixedLengthDataset(24)
        assert dataset.sample_one() == 24
        with pytest.raises(ValueError):
            FixedLengthDataset(0)

    def test_seq2seq_dataset_payloads(self):
        dataset = Seq2SeqDataset(seed=0)
        for _ in range(50):
            payload = dataset.sample_one()
            assert payload["src"] >= 1
            assert payload["tgt_len"] >= 1
            # Translations are roughly length preserving.
            assert payload["tgt_len"] <= 2 * payload["src"] + 2

    def test_tree_dataset_random(self):
        dataset = TreeDataset(seed=0)
        payload = dataset.sample_one()
        assert payload.num_leaves() >= 1

    def test_tree_dataset_fixed_complete(self):
        dataset = TreeDataset(seed=0, fixed_complete_leaves=16)
        a, b = dataset.sample_one(), dataset.sample_one()
        assert a.num_leaves() == b.num_leaves() == 16
        assert a.num_nodes() == 31


# -- one scalar draw per payload (DESIGN.md §39) ------------------------------
# Each ``sample_one`` draws one scalar and rounds (half to even) and clips in
# Python; the array path — ``np.rint`` / ``np.clip`` over a size-``n`` draw,
# which is ``n`` scalar draws from the same stream — must give the same bits.
# 10^5 draws per seed and cap, Fig. 11's caps of 50 and 100 included.

DRAWS = 100_000


@pytest.mark.parametrize("seed", [0, 1234])
@pytest.mark.parametrize("cap", [50, 100, WMTLengthSampler.HARD_MAX])
def test_length_scalar_draw_equals_the_array_path(seed, cap):
    scalar = WMTLengthSampler(seed=seed, max_length=cap)
    drawn = [scalar.sample_one() for _ in range(DRAWS)]
    assert all(type(length) is int for length in drawn)
    assert drawn == WMTLengthSampler(seed=seed, max_length=cap).sample(DRAWS).tolist()


@pytest.mark.parametrize("seed", [0, 1234])
@pytest.mark.parametrize("cap", [20, 70, 100])
def test_leaf_count_scalar_draw_equals_the_array_path(seed, cap, monkeypatch):
    """The tree sampler's leaf count; the tree drawn from it is stubbed out
    so the stream holds only the counts."""
    from repro.workload import trees

    monkeypatch.setattr(trees, "random_parse_tree", lambda rng, count, vocab: count)
    scalar = TreeBankSampler(seed=seed, max_leaves=cap)
    drawn = [scalar.sample_one() for _ in range(DRAWS)]
    assert all(type(count) is int for count in drawn)
    raw = np.random.default_rng(seed).lognormal(
        np.log(TreeBankSampler.MEDIAN), TreeBankSampler.SIGMA, size=DRAWS
    )
    assert drawn == np.clip(np.rint(raw), 1, cap).astype(np.int64).tolist()


@pytest.mark.parametrize("seed", [0, 1234])
@pytest.mark.parametrize("cap", [50, 100, WMTLengthSampler.HARD_MAX])
def test_seq2seq_ratio_and_target_scalar_draws_equal_the_array_path(seed, cap):
    scalar = Seq2SeqDataset(seed=seed, max_length=cap)
    drawn = [scalar.sample_one() for _ in range(DRAWS)]
    src = WMTLengthSampler(seed=seed, max_length=cap).sample(DRAWS)
    ratio = np.clip(np.random.default_rng(seed + 1).normal(1.0, 0.15, size=DRAWS), 0.6, 1.6)
    tgt = np.clip(np.rint(src * ratio), 1, cap).astype(np.int64)
    assert drawn == [
        {"src": s, "tgt_len": t} for s, t in zip(src.tolist(), tgt.tolist())
    ]
    assert all(type(p["tgt_len"]) is int for p in drawn)
    assert (ratio == 0.6).any() and (ratio == 1.6).any(), "no draw reached a clip"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10000), n=st.integers(1, 200))
def test_length_sampler_always_in_range(seed, n):
    lengths = WMTLengthSampler(seed=seed).sample(n)
    assert lengths.min() >= 1
    assert lengths.max() <= 330
