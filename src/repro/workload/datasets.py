"""Dataset abstractions: seeded payload samplers per application.

A dataset is anything with ``sample_one() -> payload``; the load generator
draws one payload per arrival, matching the paper's "we sample a request
from the dataset and issue it to the system with Poisson inter-arrival
times".
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.models.tree_lstm import TreePayload
from repro.workload.lengths import WMTLengthSampler
from repro.workload.trees import TreeBankSampler


class SequenceDataset:
    """Token-length payloads for the chain LSTM (WMT-15-like lengths).

    Payloads are bare integer lengths (the simulation-only LSTM model
    accepts them directly); pass ``emit_tokens=True`` to produce actual
    token-id lists for real-compute serving.
    """

    def __init__(
        self,
        seed: int = 0,
        max_length: int = WMTLengthSampler.HARD_MAX,
        emit_tokens: bool = False,
        vocab_size: int = 30000,
    ):
        self._lengths = WMTLengthSampler(seed=seed, max_length=max_length)
        self._rng = np.random.default_rng(seed + 1)
        self.emit_tokens = emit_tokens
        self.vocab_size = vocab_size

    def sample_one(self) -> Any:
        length = self._lengths.sample_one()
        if not self.emit_tokens:
            return length
        return self._rng.integers(0, self.vocab_size, size=length).tolist()


class FixedLengthDataset:
    """Every request has the same length — the paper's Figure 11 (top)
    artificial dataset with fixed length 24."""

    def __init__(self, length: int = 24):
        if length < 1:
            raise ValueError("length must be >= 1")
        self.length = length

    def sample_one(self) -> int:
        return self.length


class Seq2SeqDataset:
    """German-English-like sentence pairs for Seq2Seq.

    Source lengths follow the WMT-15 distribution; target lengths are the
    source length perturbed by a small multiplicative factor (translations
    are roughly length-preserving).  The decode length is carried in the
    payload because the paper "decode[s] for a number of steps equal to the
    corresponding English sequence length" while never using that knowledge
    for scheduling.

    With ``dynamic=True`` the payload instead requests feed-previous
    decoding with the sampled target length as the decode *budget*
    (``max_decode``): the graph grows one decoder step at a time and the
    scheduler cannot know the final length up front — the continuous
    batching workload of DESIGN.md §15.
    """

    def __init__(
        self,
        seed: int = 0,
        max_length: int = WMTLengthSampler.HARD_MAX,
        dynamic: bool = False,
    ):
        self._lengths = WMTLengthSampler(seed=seed, max_length=max_length)
        self._rng = np.random.default_rng(seed + 1)
        self.max_length = max_length
        self.dynamic = dynamic

    def sample_one(self) -> dict:
        src_len = self._lengths.sample_one()
        # Clipped in Python: the bits of ``np.clip`` on these scalars.
        ratio = min(max(self._rng.normal(1.0, 0.15), 0.6), 1.6)
        tgt_len = min(max(round(src_len * ratio), 1), self.max_length)
        if self.dynamic:
            return {"src": src_len, "dynamic": True, "max_decode": tgt_len}
        return {"src": src_len, "tgt_len": tgt_len}


class TreeDataset:
    """TreeBank-like parse trees for TreeLSTM; ``fixed_leaves`` yields the
    identical complete binary tree every time (the paper's Figure 15)."""

    def __init__(
        self,
        seed: int = 0,
        vocab_size: int = 30000,
        fixed_complete_leaves: Optional[int] = None,
    ):
        self._fixed_complete = fixed_complete_leaves
        self._sampler = TreeBankSampler(seed=seed, vocab_size=vocab_size)

    def sample_one(self) -> TreePayload:
        if self._fixed_complete is not None:
            return TreePayload.complete(self._fixed_complete)
        return self._sampler.sample_one()
