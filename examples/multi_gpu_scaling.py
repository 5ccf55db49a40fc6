"""Multi-GPU scaling of Seq2Seq serving (the paper's Figure 13 setting).

Sweeps 1, 2 and 4 simulated GPUs at a fixed offered load per GPU and
reports throughput and latency, showing how the scheduler balances load
across workers while subgraph pinning keeps each request's encoder/decoder
chains on one device.

Run:  python examples/multi_gpu_scaling.py
"""

from repro.core import BatchMakerServer, BatchingConfig
from repro.metrics.summary import format_table
from repro.models import Seq2SeqModel
from repro.workload import LoadGenerator, Seq2SeqDataset

# Stay inside single-GPU capacity: with one device the encoder and decoder
# cell types compete for the same worker (the paper evaluates Seq2Seq on 2
# and 4 GPUs, where the types naturally spread across devices).
RATE_PER_GPU = 1500


def main():
    rows = []
    for num_gpus in (1, 2, 4):
        server = BatchMakerServer(
            Seq2SeqModel(),
            config=BatchingConfig.with_max_batch(
                512,
                per_cell_max={"decoder": 256},
                per_cell_priority={"decoder": 1, "encoder": 0},
            ),
            num_gpus=num_gpus,
            name=f"BatchMaker x{num_gpus} GPU",
        )
        rate = RATE_PER_GPU * num_gpus
        generator = LoadGenerator(
            rate=rate, num_requests=min(4000 * num_gpus, 12000), seed=5
        )
        result = generator.run(server, Seq2SeqDataset(seed=5))
        now = server.loop.now()
        busy = [w.device.busy_time(now) for w in server.manager.workers]
        spread = (max(busy) - min(busy)) / max(busy) if max(busy) else 0.0
        rows.append(
            [
                server.name,
                f"{rate}",
                f"{result.summary.throughput:.0f}",
                f"{result.summary.p90_ms:.2f}",
                f"{100 * spread:.0f}%",
            ]
        )
    print("\nSeq2Seq scaling with offered load proportional to GPU count:\n")
    print(
        format_table(
            ["system", "offered req/s", "achieved req/s", "p90 ms", "busy-time imbalance"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
