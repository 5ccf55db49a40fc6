"""Advanced decoding on cellular batching: beam search and attention.

Two extensions beyond the paper (DESIGN.md §8), both served through the
unmodified scheduler in real-compute mode:

* **beam search** — each decode step runs k decoder cells plus a batchable
  top-k selection cell, and the *wiring* of the next step depends on the
  selection's output (which parent each surviving beam extends);
* **attention** — decoder cells attend over a fixed-capacity padded memory
  of encoder states, keeping all attention cells shape-compatible so they
  batch across requests with different source lengths.

Both decoders' served outputs are asserted identical to direct (unserved)
implementations.

Run:  python examples/advanced_decoding.py
"""

import numpy as np

from repro.core import BatchMakerServer, BatchingConfig
from repro.models import AttentionSeq2SeqModel, BeamSeq2SeqModel

VOCAB_SIZE = 30


def beam_demo():
    print("== Beam-search decoding (k=3) ==")
    model = BeamSeq2SeqModel(
        hidden_dim=24,
        src_vocab_size=VOCAB_SIZE,
        tgt_vocab_size=VOCAB_SIZE,
        embed_dim=12,
        beam_width=3,
        real=True,
        seed=21,
    )
    server = BatchMakerServer(
        model, config=BatchingConfig.with_max_batch(8), real_compute=True
    )
    rng = np.random.default_rng(7)
    payloads = [
        {
            "src": [int(t) for t in rng.integers(3, VOCAB_SIZE, size=rng.integers(2, 8))],
            "max_steps": 7,
        }
        for _ in range(5)
    ]
    requests = [
        server.submit(p, arrival_time=i * 1e-3) for i, p in enumerate(payloads)
    ]
    server.drain()
    for request, payload in zip(requests, payloads):
        served = BeamSeq2SeqModel.decode_best(request)
        reference = model.reference_forward(payload)
        assert served == reference, "served beam search diverged!"
        print(
            f"  src={payload['src']} -> best beam {served} "
            f"({len(request.result) // 2} steps, "  # (tokens, parents) per step
            f"latency {1e3 * request.latency:.2f} ms)"
        )
    print(f"  tasks: {server.tasks_submitted()}, "
          f"mean batch {server.mean_batch_size():.1f} "
          "(beams of different requests batched together)\n")


def attention_demo():
    print("== Attention decoding (padded memory, capacity 8) ==")
    model = AttentionSeq2SeqModel(
        hidden_dim=20,
        src_vocab_size=VOCAB_SIZE,
        tgt_vocab_size=VOCAB_SIZE,
        embed_dim=10,
        max_src=8,
        real=True,
        seed=22,
    )
    server = BatchMakerServer(
        model,
        config=BatchingConfig.with_max_batch(
            8, per_cell_priority={"attn_decoder": 1}
        ),
        real_compute=True,
    )
    rng = np.random.default_rng(8)
    payloads = [
        {
            "src": [int(t) for t in rng.integers(3, VOCAB_SIZE, size=rng.integers(2, 9))],
            "tgt_len": int(rng.integers(2, 6)),
        }
        for _ in range(5)
    ]
    requests = [
        server.submit(p, arrival_time=i * 1e-3) for i, p in enumerate(payloads)
    ]
    server.drain()
    for request, payload in zip(requests, payloads):
        served = [int(np.asarray(t).reshape(())) for t in request.result]
        assert served == model.reference_forward(payload), "attention diverged!"
        print(
            f"  src={payload['src']} -> {served} "
            f"(latency {1e3 * request.latency:.2f} ms)"
        )
    print(server.stats().report())


if __name__ == "__main__":
    beam_demo()
    attention_demo()
