"""Model interface consumed by the serving engines.

This corresponds to the two things a BatchMaker user provides (§4.1): the
definition of each cell, and a function that unfolds each request into its
cell graph.  The extra hooks (``phases``, ``extend``, ``reference_forward``)
exist for the baselines, the dynamic-decoding extension, and correctness
testing respectively.  ``extend`` is handed the completed node's id, as
every engine stage names a node: what it needs to know about that node it
asks the graph (``graph.cell_type_of(node_id)``, and in real-compute mode
the computed rows ``graph.outputs[node_id]``).
"""

from __future__ import annotations

import reprlib
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cell import CellType
from repro.core.cell_graph import CellGraph, CellNode
from repro.core.request import PayloadError


def length_field(value: Any, field: str) -> int:
    """A payload's length ``field``: an integer >= 1 (a NumPy one too, but
    never a bool)."""
    if (type(value) is int or isinstance(value, np.integer)) and value >= 1:
        return int(value)
    raise PayloadError(f"{field} must be an integer >= 1, got {reprlib.repr(value)}")


def tokens_field(value: Any, field: str) -> List[int]:
    """A payload's token ``field``, the one normaliser every model uses: a
    bare length (simulation mode: that many zero tokens) or a non-empty
    sequence of integers — no str, bool or float, as the field or a token."""
    if type(value) is int or isinstance(value, np.integer):
        return [0] * length_field(value, field)
    try:
        tokens = [t if type(t) is int else _numpy_token(t) for t in value]
    except TypeError:
        tokens = []
    if not tokens:
        raise PayloadError(
            f"{field} must be a length or a non-empty sequence of integers, "
            f"got {reprlib.repr(value)}"
        )
    return tokens


def _numpy_token(token: Any) -> int:
    if isinstance(token, np.integer):
        return int(token)
    raise TypeError(token)


class Model:
    """A servable RNN model."""

    name: str = "model"

    # -- required --------------------------------------------------------------

    def cell_types(self) -> Sequence[CellType]:
        """All cell types this model unfolds into."""
        raise NotImplementedError

    def unfold(self, graph: CellGraph, payload: Any) -> None:
        """Build the request's cell graph (the paper's user-defined unfold
        function).  Must call ``graph.mark_result`` for the outputs that
        constitute the request's answer, and raise ``PayloadError`` for a
        payload it refuses (``tokens_field`` / ``length_field`` do)."""
        raise NotImplementedError

    # -- optional ----------------------------------------------------------------

    def extend(self, graph: CellGraph, node_id: int, payload: Any) -> List[CellNode]:
        """Dynamic unfolding hook: called when node ``node_id`` finishes;
        may append new explicit nodes (e.g. feed-previous decoding until
        <eos>) and returns them.  The default is static unfolding: no
        growth."""
        return []

    def phases(self, payload: Any) -> List[Tuple[str, int]]:
        """``[(cell_type_name, steps), ...]`` description used by the padded
        (graph-batching) baseline.  Chain models return one phase; Seq2Seq
        returns encoder and decoder phases.  Models that padding cannot
        express (trees) raise ``NotImplementedError``, matching the paper's
        observation that padding does not support TreeLSTM."""
        raise NotImplementedError(
            f"model {self.name!r} does not support padding-based batching"
        )

    def reference_forward(self, payload: Any) -> Optional[List[Any]]:
        """Direct, unbatched forward pass for correctness checks (returns the
        same values ``CellGraph.collect_results`` would).  None when the
        model is simulation-only."""
        return None

    def default_cost_model(self):
        """Calibrated :class:`~repro.gpu.costmodel.CostModel` with a latency
        table registered for each of this model's cell types."""
        raise NotImplementedError

