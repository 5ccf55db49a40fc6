"""Equivalence of the scheduler and the brute-force reference.

The incremental ready-count accounting and eligibility indexes must change
*nothing* about Algorithm 1's decisions: with a fixed seed, a mid-load
simulation run must be bit-identical — same ``tasks_submitted``, same
``batch_size_counts`` histogram, same ``RunSummary`` — to one run with the
O(queue) scans of ``tests/oracles/bruteforce_scheduler.py`` installed.
"""

from repro.core import BatchMakerServer, BatchingConfig
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.policies import bundle_from_names
from repro.workload import (
    LoadGenerator,
    Seq2SeqDataset,
    SequenceDataset,
    TreeDataset,
)
from tests.oracles.bruteforce_scheduler import install_reference_scans


def _run(server_factory, dataset, rate, num_requests):
    server = server_factory()
    generator = LoadGenerator(rate=rate, num_requests=num_requests, seed=7)
    result = generator.run(server, dataset)
    scheduler = server.manager.scheduler
    summary = result.summary
    return {
        "tasks_submitted": scheduler.tasks_submitted,
        "batch_size_counts": dict(scheduler.batch_size_counts),
        "mean_batch_size": scheduler.mean_batch_size(),
        "offered_rate": summary.offered_rate,
        "throughput": summary.throughput,
        "p50_ms": summary.p50_ms,
        "p90_ms": summary.p90_ms,
        "p99_ms": summary.p99_ms,
        # Bit-exact per-request latencies, not just the percentiles.
        "latencies": tuple(summary.stats.latencies),
        "queuing": tuple(summary.stats.queuing),
    }


def _compare(make_server, make_dataset, rate, num_requests):
    fast = _run(make_server, make_dataset(), rate, num_requests)
    brute = _run(
        lambda: install_reference_scans(make_server()),
        make_dataset(),
        rate,
        num_requests,
    )
    assert fast == brute


class TestFastPathEquivalence:
    def test_lstm_mid_load_one_gpu(self):
        """Chain LSTM at a rate where the queue holds hundreds of released
        subgraphs — the regime the eligibility lists exist for."""

        def make_server():
            return BatchMakerServer(
                LSTMChainModel(),
                config=BatchingConfig.with_max_batch(512),
            )

        _compare(make_server, lambda: SequenceDataset(seed=1), 8000, 1500)

    def test_tree_lstm_two_gpus(self):
        """TreeLSTM on 2 GPUs: exercises pinned-elsewhere skipping, the
        leaf/internal priority split, and exhausted-subgraph removal."""

        def make_server():
            return BatchMakerServer(
                TreeLSTMModel(),
                config=BatchingConfig.with_max_batch(
                    64,
                    per_cell_priority={"tree_internal": 1, "tree_leaf": 0},
                ),
                num_gpus=2,
            )

        _compare(make_server, lambda: TreeDataset(seed=2), 500, 400)

    def test_seq2seq_two_gpus_per_cell_batches(self):
        """Seq2Seq with per-cell-type max batches and decoder priority:
        exercises the three-tier candidate selection across queues."""

        def make_server():
            return BatchMakerServer(
                Seq2SeqModel(),
                config=BatchingConfig.with_max_batch(
                    512,
                    per_cell_max={"decoder": 256},
                    per_cell_priority={"decoder": 1, "encoder": 0},
                ),
                num_gpus=2,
            )

        _compare(make_server, lambda: Seq2SeqDataset(seed=5), 3000, 600)

    def test_unpinned_ablation_equivalence(self):
        """Unpinned placement flips subgraphs to non-optimistic readiness
        (deps advance on completion) — the counters must track that path
        too."""

        def make_server():
            return BatchMakerServer(
                LSTMChainModel(),
                config=BatchingConfig.with_max_batch(512),
                num_gpus=2,
                policies=bundle_from_names(placement="unpinned"),
            )

        _compare(make_server, lambda: SequenceDataset(seed=1), 5000, 800)

    def test_tight_batch_cap_two_gpus(self):
        """A cap of 4 on a deep queue: nearly every plan is cut off at the
        cap, so *which* subgraphs make it in — the unpinned ones and the
        worker's own, by arrival order, past those pinned to the other —
        decides the run."""

        def make_server():
            return BatchMakerServer(
                LSTMChainModel(),
                config=BatchingConfig.with_max_batch(4),
                num_gpus=2,
            )

        _compare(make_server, lambda: SequenceDataset(seed=1), 8000, 300)

    def test_fixed_placement_four_gpus(self):
        """Sticky homes on 4 GPUs (``FixedPlacement``): each request is
        pinned to one worker for life, so three of every four listed
        subgraphs belong to another worker and every plan skips past them,
        keeping them listed — the worst case of the one ready list."""

        def make_server():
            return BatchMakerServer(
                LSTMChainModel(),
                config=BatchingConfig.with_max_batch(64),
                num_gpus=4,
                policies=bundle_from_names(placement="fixed"),
            )

        _compare(make_server, lambda: SequenceDataset(seed=1), 8000, 600)

    def test_tree_fixed_placement_four_gpus(self):
        """TreeLSTM under ``FixedPlacement`` on 4 GPUs: the placement's own
        ``on_admit`` gives every leaf of a request its sticky home, so
        three of every four listed leaves belong to another worker."""

        def make_server():
            return BatchMakerServer(
                TreeLSTMModel(),
                config=BatchingConfig.with_max_batch(
                    64,
                    per_cell_priority={"tree_internal": 1, "tree_leaf": 0},
                ),
                num_gpus=4,
                policies=bundle_from_names(placement="fixed"),
            )

        _compare(make_server, lambda: TreeDataset(seed=2), 1500, 400)

    def test_tree_unpinned_placement(self):
        """TreeLSTM under ``UnpinnedPlacement``: admission stores the
        policy's non-optimistic readiness on every leaf, and the internal
        nodes advance on completion."""

        def make_server():
            return BatchMakerServer(
                TreeLSTMModel(),
                config=BatchingConfig.with_max_batch(
                    64,
                    per_cell_priority={"tree_internal": 1, "tree_leaf": 0},
                ),
                num_gpus=2,
                policies=bundle_from_names(placement="unpinned"),
            )

        _compare(make_server, lambda: TreeDataset(seed=2), 1000, 400)
