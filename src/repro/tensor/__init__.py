"""Forward-only NumPy neural-network substrate.

The paper builds BatchMaker on MXNet's kernel library; this package is the
equivalent substrate here.  It provides the tensor operators RNN cells need
(`ops`), a tiny static dataflow-graph representation with shape inference and
topological execution (`graph`), and a parameter store with seeded
initialisation and save/load (`parameters`).

Only inference (forward) is implemented — BatchMaker is an inference system
and never computes gradients.
"""

from repro.tensor import ops
from repro.tensor.graph import DataflowGraph, OpSpec
from repro.tensor.parameters import ParameterStore, glorot_uniform, orthogonal

__all__ = [
    "ops",
    "DataflowGraph",
    "OpSpec",
    "ParameterStore",
    "glorot_uniform",
    "orthogonal",
]
