"""Cell-type registration for the serving engine.

A :class:`CellType` binds together everything the engine needs to know about
one batchable cell: its name (keying the cost model and the config), the
optional NumPy :class:`~repro.cells.base.Cell` that actually computes it in
real-compute mode, and its input/output names for graph wiring.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cells.base import Cell


class CellType:
    """A registered, batchable cell type.

    In pure-simulation mode ``cell`` is None and only ``name``,
    ``input_names``/``output_names`` and ``num_operators`` matter (the cost
    model supplies timing).  In real-compute mode ``cell`` provides the
    batched forward function.
    """

    def __init__(
        self,
        name: str,
        input_names: Sequence[str],
        output_names: Sequence[str],
        cell: Optional[Cell] = None,
        num_operators: int = 1,
    ):
        if not name:
            raise ValueError("cell type name must be non-empty")
        self.name = name
        self.input_names = tuple(input_names)
        self.output_names = tuple(output_names)
        self.cell = cell
        # Kernels per step, read once here: the worker prices every task
        # with it.
        self.num_operators = (
            cell.num_operators() if cell is not None else num_operators
        )

    @classmethod
    def from_cell(cls, cell: Cell, name: Optional[str] = None) -> "CellType":
        """Register a NumPy cell as a servable cell type."""
        return cls(
            name or cell.name,
            cell.input_names,
            cell.output_names,
            cell=cell,
            num_operators=cell.num_operators(),
        )

    def compute(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Batched forward (real-compute mode only)."""
        if self.cell is None:
            raise RuntimeError(
                f"cell type {self.name!r} has no compute body "
                "(registered for simulation only)"
            )
        return self.cell(inputs)

    def __repr__(self) -> str:
        mode = "compute" if self.cell is not None else "sim-only"
        return f"<CellType {self.name!r} ({mode})>"
