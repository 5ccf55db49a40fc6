"""Shared fixtures: small real-compute models and seeded RNGs."""

import numpy as np
import pytest

from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreeNodeSpec
from tests.oracles.node_tree import payload_of


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_lstm_model():
    return LSTMChainModel(
        hidden_dim=16, vocab_size=50, embed_dim=8, real=True, project_output=True
    )


@pytest.fixture
def small_seq2seq_model():
    return Seq2SeqModel(
        hidden_dim=12, src_vocab_size=40, tgt_vocab_size=40, embed_dim=6, real=True
    )


@pytest.fixture
def small_tree_model():
    return TreeLSTMModel(hidden_dim=10, vocab_size=30, embed_dim=5, real=True)


def random_tree(rng, depth=3, vocab=30, leaf_prob=0.3):
    """A random binary TreeNodeSpec of bounded depth."""
    if depth == 0 or rng.random() < leaf_prob:
        return TreeNodeSpec(token=int(rng.integers(0, vocab)))
    return TreeNodeSpec(
        left=random_tree(rng, depth - 1, vocab, leaf_prob),
        right=random_tree(rng, depth - 1, vocab, leaf_prob),
    )


@pytest.fixture
def random_tree_payloads(rng):
    return [
        payload_of(TreeNodeSpec(left=random_tree(rng), right=random_tree(rng)))
        for _ in range(6)
    ]
