"""Tensor operators used by the RNN cells.

Every operator is a plain function on ``numpy.ndarray`` values.  The batch
dimension is always axis 0; this is the invariant cellular batching relies
on — stacking per-request rows along axis 0, running one batched kernel and
splitting the result rows back out is bit-identical to running the requests
one at a time (all ops here are row-wise or affine in the batch dimension).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product; ``a`` is (batch, k), ``b`` is (k, n)."""
    return a @ b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise addition with broadcasting (used for bias terms)."""
    return a + b


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise (Hadamard) product."""
    return a * b


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    Computed directly in the input's floating dtype (one output buffer, no
    float64 round-trip); the split at zero keeps every ``exp`` argument
    non-positive, so it never overflows even at x = ±500.
    """
    x = np.asarray(x)
    compute_dtype = x.dtype if x.dtype.kind == "f" else np.float64
    out = np.empty(x.shape, dtype=compute_dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos], dtype=compute_dtype))
    ex = np.exp(x[~pos], dtype=compute_dtype)
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False) if out.dtype != x.dtype else out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-invariant softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of softmax, computed stably."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def argmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Index of the maximum along ``axis``.

    The paper implements an optimised argmax CUDA kernel for the Seq2Seq
    decoder's feed-previous loop; this is its NumPy counterpart.
    """
    return np.argmax(x, axis=axis)


def concat(tensors: Sequence[np.ndarray], axis: int = -1) -> np.ndarray:
    """Concatenate tensors along ``axis``."""
    return np.concatenate(list(tensors), axis=axis)


def split(x: np.ndarray, sections: int, axis: int = -1) -> list:
    """Split ``x`` into ``sections`` equal parts along ``axis``."""
    return np.split(x, sections, axis=axis)


def embedding_lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row lookup: ``table`` is (vocab, dim), ``ids`` is (batch,) of ints."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"ids must be 1-D (batch,), got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    return table[ids]


def stack_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Gather: stack per-request rows into one batched tensor (axis 0).

    Each row may be shape (d,) or (1, d); the result is (batch, d).  This is
    the NumPy analogue of the contiguous-memory "gather" copy the paper
    performs before a batched kernel launch.
    """
    prepared = []
    for row in rows:
        arr = np.asarray(row)
        if arr.ndim >= 2 and arr.shape[0] == 1:
            arr = arr[0]
        prepared.append(arr)
    return np.stack(prepared, axis=0)
