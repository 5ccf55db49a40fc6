"""Parameter (weight) management.

BatchMaker loads pre-trained weights from files at startup and "embeds" them
into cells so that weights are internal state rather than inputs.  This
module is the weight store behind that: seeded initialisers (so examples and
tests are reproducible), named parameter groups, and ``.npz`` save/load so a
"training" program can hand weights to the serving system the way the paper's
MXNet JSON/params files do.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np


def glorot_uniform(
    rng: np.random.Generator, shape: Tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """Glorot/Xavier uniform initialiser, the default for gate weights."""
    if len(shape) < 2:
        fan_in = fan_out = int(shape[0]) if shape else 1
    else:
        fan_in, fan_out = int(shape[0]), int(shape[1])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(
    rng: np.random.Generator, shape: Tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """Orthogonal initialiser, commonly used for recurrent weights."""
    if len(shape) != 2:
        raise ValueError(f"orthogonal init requires a 2-D shape, got {shape}")
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols].astype(dtype)


class ParameterStore:
    """A flat, named collection of weight arrays.

    Names are hierarchical strings like ``"encoder/lstm/W"``.  The store is
    deliberately simple — a dict with seeded creation helpers and npz
    persistence — because inference never mutates weights.
    """

    def __init__(self, seed: Optional[int] = 0):
        self._params: Dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(seed)

    # -- creation ---------------------------------------------------------

    def create(
        self,
        name: str,
        shape: Tuple[int, ...],
        init: str = "glorot",
        dtype=np.float32,
    ) -> np.ndarray:
        """Create and register a parameter; returns the array.

        ``init`` is one of ``glorot``, ``orthogonal``, ``zeros``, ``normal``.
        Creating a name twice is an error (weights are immutable identities).
        """
        if name in self._params:
            raise KeyError(f"parameter {name!r} already exists")
        if init == "glorot":
            value = glorot_uniform(self._rng, shape, dtype)
        elif init == "orthogonal":
            value = orthogonal(self._rng, shape, dtype)
        elif init == "zeros":
            value = np.zeros(shape, dtype=dtype)
        elif init == "normal":
            value = (0.1 * self._rng.standard_normal(shape)).astype(dtype)
        else:
            raise ValueError(f"unknown initialiser {init!r}")
        self._params[name] = value
        return value

    # -- access -----------------------------------------------------------

    def get(self, name: str) -> np.ndarray:
        if name not in self._params:
            raise KeyError(f"unknown parameter {name!r}")
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> Iterator[str]:
        return iter(sorted(self._params))

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Serialise all parameters to an ``.npz`` archive."""
        np.savez(Path(path), **self._params)

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """Load a store previously written by :meth:`save`."""
        store = cls()
        with np.load(Path(path)) as archive:
            for name in archive.files:
                store._params[name] = archive[name]
        return store
