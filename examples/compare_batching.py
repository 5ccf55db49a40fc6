"""Side-by-side comparison of every batching strategy in this repository.

Runs the same TreeLSTM workload through BatchMaker (cellular batching),
DyNet- and TF-Fold-style dynamic graph merging, and — on a fixed-structure
variant — the ideal hard-coded executor, printing one table per workload.

Run:  python examples/compare_batching.py
"""

from repro.baselines import FoldServer, IdealServer
from repro.core import BatchMakerServer, BatchingConfig
from repro.metrics.summary import format_table
from repro.models import TreeLSTMModel, TreePayload
from repro.workload import LoadGenerator, TreeDataset

RATE = 1500
NUM_REQUESTS = 3000


def batchmaker():
    return BatchMakerServer(
        TreeLSTMModel(),
        config=BatchingConfig.with_max_batch(
            64, per_cell_priority={"tree_internal": 1, "tree_leaf": 0}
        ),
    )


def run(server, dataset):
    generator = LoadGenerator(rate=RATE, num_requests=NUM_REQUESTS, seed=3)
    result = generator.run(server, dataset)
    return [
        server.name,
        f"{result.summary.throughput:.0f}",
        f"{result.summary.p50_ms:.2f}",
        f"{result.summary.p90_ms:.2f}",
        f"{result.summary.p99_ms:.2f}",
    ]


def main():
    headers = ["system", "req/s", "p50 ms", "p90 ms", "p99 ms"]

    print(f"\nTreeBank-like parse trees at {RATE} req/s:\n")
    rows = [
        run(batchmaker(), TreeDataset(seed=2)),
        run(FoldServer.dynet(TreeLSTMModel()), TreeDataset(seed=2)),
        run(FoldServer.tensorflow_fold(TreeLSTMModel()), TreeDataset(seed=2)),
    ]
    print(format_table(headers, rows))

    print(f"\nIdentical 16-leaf complete binary trees at {RATE} req/s:\n")
    template = TreePayload.complete(16)
    fixed = lambda: TreeDataset(seed=2, fixed_complete_leaves=16)
    rows = [
        run(batchmaker(), fixed()),
        run(IdealServer(TreeLSTMModel(), template, max_batch=64), fixed()),
        run(FoldServer.dynet(TreeLSTMModel()), fixed()),
    ]
    print(format_table(headers, rows))
    print(
        "\nEven against a zero-overhead hard-coded graph, cellular batching "
        "wins on latency:\nrequests join mid-flight and leave at their root "
        "instead of waiting out the batch."
    )


if __name__ == "__main__":
    main()
