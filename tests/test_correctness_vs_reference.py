"""Integration correctness: batched serving must produce bit-identical
results to direct per-request model evaluation, regardless of batching,
arrival order, scheduling or multi-GPU placement."""

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.models.tree_lstm import TreePayload, TreeNodeSpec
from tests.conftest import random_tree
from tests.oracles.node_tree import payload_of


def scalar(x):
    return int(np.asarray(x).reshape(()))


class TestLSTMChain:
    def test_serving_matches_reference(self, small_lstm_model, rng):
        server = BatchMakerServer(
            small_lstm_model,
            config=BatchingConfig.with_max_batch(4),
            real_compute=True,
        )
        payloads = [
            [int(t) for t in rng.integers(0, 50, size=rng.integers(1, 15))]
            for _ in range(12)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            assert scalar(request.result[0]) == scalar(
                small_lstm_model.reference_forward(payload)[0]
            )

    def test_results_independent_of_batch_size(self, rng):
        from repro.models import LSTMChainModel

        payloads = [
            [int(t) for t in rng.integers(0, 50, size=rng.integers(1, 10))]
            for _ in range(8)
        ]
        outcomes = []
        for max_batch in (1, 4, 64):
            model = LSTMChainModel(
                hidden_dim=16, vocab_size=50, embed_dim=8, real=True,
                project_output=True, seed=5,
            )
            server = BatchMakerServer(
                model,
                config=BatchingConfig.with_max_batch(max_batch),
                real_compute=True,
            )
            requests = [
                server.submit(p, arrival_time=i * 1e-4)
                for i, p in enumerate(payloads)
            ]
            server.drain()
            outcomes.append([scalar(r.result[0]) for r in requests])
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_results_independent_of_gpu_count(self, rng):
        from repro.models import LSTMChainModel

        payloads = [
            [int(t) for t in rng.integers(0, 50, size=rng.integers(2, 12))]
            for _ in range(10)
        ]
        outcomes = []
        for num_gpus in (1, 3):
            model = LSTMChainModel(
                hidden_dim=16, vocab_size=50, embed_dim=8, real=True,
                project_output=True, seed=5,
            )
            server = BatchMakerServer(
                model,
                config=BatchingConfig.with_max_batch(4),
                num_gpus=num_gpus,
                real_compute=True,
            )
            requests = [
                server.submit(p, arrival_time=i * 1e-4)
                for i, p in enumerate(payloads)
            ]
            server.drain()
            outcomes.append([scalar(r.result[0]) for r in requests])
        assert outcomes[0] == outcomes[1]


class TestSeq2Seq:
    def test_static_decoding_matches_reference(self, small_seq2seq_model, rng):
        server = BatchMakerServer(
            small_seq2seq_model,
            config=BatchingConfig.with_max_batch(4),
            real_compute=True,
        )
        payloads = [
            {
                "src": [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))],
                "tgt_len": int(rng.integers(1, 7)),
            }
            for _ in range(10)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            got = [scalar(x) for x in request.result]
            assert got == small_seq2seq_model.reference_forward(payload)

    def test_dynamic_decoding_matches_reference(self, small_seq2seq_model, rng):
        server = BatchMakerServer(
            small_seq2seq_model,
            config=BatchingConfig.with_max_batch(4),
            real_compute=True,
        )
        payloads = [
            {
                "src": [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))],
                "dynamic": True,
                "max_decode": 8,
            }
            for _ in range(10)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            got = [scalar(x) for x in request.result]
            assert got == small_seq2seq_model.reference_forward(payload)


class TestTreeLSTM:
    def test_random_trees_match_reference(self, small_tree_model, rng):
        server = BatchMakerServer(
            small_tree_model,
            config=BatchingConfig.with_max_batch(8),
            real_compute=True,
        )
        payloads = [
            payload_of(TreeNodeSpec(left=random_tree(rng), right=random_tree(rng)))
            for _ in range(8)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4) for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            ref = small_tree_model.reference_forward(payload)
            np.testing.assert_allclose(
                np.asarray(request.result[0]), np.asarray(ref[0]), atol=1e-6
            )

    def test_paper_example_tree_16_leaves(self, small_tree_model):
        server = BatchMakerServer(
            small_tree_model,
            config=BatchingConfig.with_max_batch(64),
            real_compute=True,
        )
        payload = TreePayload.complete(16, token=3)
        request = server.submit(payload)
        server.drain()
        ref = small_tree_model.reference_forward(payload)
        np.testing.assert_allclose(
            np.asarray(request.result[0]), np.asarray(ref[0]), atol=1e-6
        )
