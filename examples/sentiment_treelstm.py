"""TreeLSTM sentiment classification over parse trees (real compute).

Parses bracketed constituency expressions into binary trees, serves them
through BatchMaker in real-compute mode, and classifies each sentence with
a small sentiment head on the root representation — the application the
paper evaluates TreeLSTM on (Stanford Sentiment TreeBank).

This example demonstrates the scheduling case the paper works through in
§4.4: each tree unfolds into one subgraph per leaf plus one subgraph of
internal cells; leaves of many requests batch together, internal levels
batch with whatever same-type cells are ready, and internal cells have
priority over leaves.

Run:  python examples/sentiment_treelstm.py
"""

import numpy as np

from repro.core import BatchMakerServer, BatchingConfig
from repro.models import TreeLSTMModel, TreePayload
from repro.tensor import ops

VOCAB = [
    "the", "movie", "was", "great", "terrible", "acting", "plot", "boring",
    "wonderful", "a", "masterpiece", "waste", "of", "time", "not", "bad",
]
WORD_TO_ID = {w: i for i, w in enumerate(VOCAB)}

SENTENCES = [
    "((the movie) (was great))",
    "((the acting) (was terrible))",
    "((a masterpiece) (of acting))",
    "((the plot) (was boring))",
    "(((the movie) (was not)) bad)",
    "((a waste) (of time))",
]


def parse(expression):
    """Parse a bracketed expression into the payload's post-order arrays:
    a word is a leaf, and each ")" closes a node over the two subtrees
    finished since its "(" — children before parents, as ``add_tree`` reads
    them."""
    left, right, token = [], [], []
    finished = []  # positions of subtrees still waiting for their parent
    opened = []  # len(finished) at each unclosed "("
    for item in expression.replace("(", " ( ").replace(")", " ) ").split():
        if item == "(":
            opened.append(len(finished))
            continue
        if item == ")":
            if not opened or len(finished) - opened.pop() != 2:
                raise ValueError(f"a bracket must hold two subtrees: {expression!r}")
            right.append(finished.pop())
            left.append(finished.pop())
            token.append(None)
        else:
            left.append(-1)
            right.append(-1)
            token.append(WORD_TO_ID[item])
        finished.append(len(token) - 1)
    if opened or len(finished) != 1:
        raise ValueError(f"not one bracketed tree: {expression!r}")
    return TreePayload(left, right, token)


def main():
    model = TreeLSTMModel(
        hidden_dim=24, vocab_size=len(VOCAB), embed_dim=12, real=True, seed=4
    )
    # A small sentiment head on top of the root hidden state.
    rng = np.random.default_rng(0)
    head = rng.standard_normal((24, 2)).astype(np.float32) * 0.5

    server = BatchMakerServer(
        model,
        config=BatchingConfig.with_max_batch(
            64, per_cell_priority={"tree_internal": 1, "tree_leaf": 0}
        ),
        real_compute=True,
    )
    requests = [
        (text, server.submit(parse(text), arrival_time=i * 1e-3))
        for i, text in enumerate(SENTENCES)
    ]
    server.drain()

    print("\nTreeLSTM sentiment service (randomly initialised weights):\n")
    for text, request in requests:
        root_h = np.asarray(request.result[0])
        probabilities = ops.softmax(root_h @ head)
        label = "positive" if probabilities[1] > 0.5 else "negative"
        print(
            f"  {text:42s} -> {label} "
            f"(p+ = {probabilities[1]:.2f}, latency {1e3 * request.latency:.2f} ms)"
        )
    print(
        f"\nBatched tasks executed: {server.tasks_submitted()}, "
        f"mean batch size: {server.mean_batch_size():.1f}"
    )
    print(
        "(Weights are untrained, so labels are arbitrary — the point is "
        "cell-level batching\nacross tree-shaped requests with "
        "internal-over-leaf priority.)"
    )


if __name__ == "__main__":
    main()
