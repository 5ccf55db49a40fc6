"""Differential suite for the block-drawn parse-tree sampler (DESIGN.md §41).

``random_parse_tree`` takes the generator's raw 32-bit words a block at a
time and computes each split and token as numpy's bounded draw does.  The
trees a seed gives, and the state it leaves the generator in, must equal
one ``rng.integers`` call per split and per token
(``tests/oracles/scalar_parse_tree.py``): every payload, the corpus and the
ledger's exact rows hang on them.  Each case compares the arrays and the
bit generator's state after every tree, so a block that runs one word past
the tree, a free draw that takes a word, or a rejection skipped all fail.
"""

import numpy as np
import pytest

from repro.workload.trees import TreeBankSampler, random_parse_tree
from tests.chaos_helpers import chaos_seeds
from tests.oracles.scalar_parse_tree import scalar_parse_tree

SEEDS = chaos_seeds()
BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64]
# 1 and 2 leave the token range empty or one bit wide; 2**31 + 1 rejects
# about half of its words.
VOCAB_SIZES = [1, 2, 97, 30000, 2**31 + 1]
LEAF_COUNTS = [*range(1, 71), 3000]


def arrays(payload):
    return (payload.left, payload.right, payload.token)


def state(rng):
    """The bit generator's state with its arrays as lists, comparable by ``==``."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    return plain(rng.bit_generator.state)


def pair(bit_generator, seed, half_word):
    """Two generators in one state; ``half_word`` leaves PCG64's buffered
    upper half-word filled (the other generators buffer none)."""
    ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if half_word:
        ours.integers(1, 9)
        theirs.integers(1, 9)
        if bit_generator is np.random.PCG64:
            assert ours.bit_generator.state["has_uint32"] == 1
    return ours, theirs


@pytest.mark.chaos
@pytest.mark.parametrize("half_word", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_equal_the_scalar_draws(seed, bit_generator, half_word):
    """Per vocabulary size, 1 to 70 leaves and one 3000-leaf tree drawn in
    a row from one generator: the same arrays and the same generator state
    after every tree."""
    for vocab_size in VOCAB_SIZES:
        ours, theirs = pair(bit_generator, [seed, vocab_size], half_word)
        for leaves in LEAF_COUNTS:
            got = random_parse_tree(ours, leaves, vocab_size)
            want = scalar_parse_tree(theirs, leaves, vocab_size)
            assert arrays(got) == arrays(want), (vocab_size, leaves)
            assert state(ours) == state(theirs), (vocab_size, leaves)


@pytest.mark.parametrize("seed", [0, 1234])
def test_sampler_trees_equal_the_scalar_draws(seed):
    """10^4 ``TreeBankSampler`` trees, each after its leaf count's
    lognormal draw, which reads 64-bit words and leaves PCG64's buffered
    half-word to the next tree."""
    sampler = TreeBankSampler(seed=seed)
    theirs = np.random.default_rng(seed)
    for _ in range(10_000):
        got = sampler.sample_one()
        raw = theirs.lognormal(np.log(TreeBankSampler.MEDIAN), TreeBankSampler.SIGMA)
        leaves = min(max(round(raw), 1), sampler.max_leaves)
        want = scalar_parse_tree(theirs, leaves, sampler.vocab_size)
        assert arrays(got) == arrays(want)
        assert state(sampler._rng) == state(theirs)


def test_a_rejected_split_is_drawn_again():
    """Seed 4's word 16 836 is rejected by a split of 2 666 leaves (its low
    half below 2**32 % 2665): the root split of a tree started there is
    drawn from the next word, as numpy draws it."""
    skip, span = 16_836, 2665
    word = int(np.random.default_rng(4).integers(0, 2**32, size=skip + 1, dtype=np.uint32)[-1])
    assert (word * span) & 0xFFFFFFFF < 2**32 % span
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    for rng in (ours, theirs):
        rng.integers(0, 2**32, size=skip, dtype=np.uint32)
    assert arrays(random_parse_tree(ours, span + 1)) == arrays(scalar_parse_tree(theirs, span + 1))
    assert state(ours) == state(theirs)


@pytest.mark.parametrize("vocab_size", [0, 2**32 + 1])
def test_vocab_size_outside_the_32_bit_draw_is_refused(vocab_size):
    with pytest.raises(ValueError, match="vocab_size"):
        random_parse_tree(np.random.default_rng(0), 5, vocab_size)


def test_a_vocabulary_of_2_to_the_32_is_the_raw_word():
    """``integers(0, 2**32)`` returns the raw word; the bounded draw with
    range ``2**32`` computes the same value and never rejects."""
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for leaves in (1, 5, 40):
        got = random_parse_tree(ours, leaves, 2**32)
        assert arrays(got) == arrays(scalar_parse_tree(theirs, leaves, 2**32))
        assert state(ours) == state(theirs)
