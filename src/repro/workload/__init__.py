"""Workload generation: datasets, arrival processes, and the load generator.

The paper's datasets (WMT-15 Europarl sentences, Stanford TreeBank parse
trees) are substituted with seeded synthetic equivalents calibrated to the
statistics the paper publishes; see DESIGN.md for the substitution table.
"""

from repro.workload.arrivals import PoissonArrivals
from repro.workload.datasets import (
    FixedLengthDataset,
    Seq2SeqDataset,
    SequenceDataset,
    TreeDataset,
)
from repro.workload.lengths import WMTLengthSampler
from repro.workload.loadgen import LoadGenerator, RunResult
from repro.workload.trees import random_parse_tree

__all__ = [
    "PoissonArrivals",
    "WMTLengthSampler",
    "SequenceDataset",
    "FixedLengthDataset",
    "Seq2SeqDataset",
    "TreeDataset",
    "random_parse_tree",
    "LoadGenerator",
    "RunResult",
]
