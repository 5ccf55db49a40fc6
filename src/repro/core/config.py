"""Batching and scheduling configuration.

Gathers the tunables Algorithm 1 reads: the supported batch sizes per cell
type (``Bsizes`` with its ``Max``/``Min``), per-cell-type priorities, and
``MaxTasksToSubmit`` (paper default 5).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.spec import Spec


class CellTypeConfig(Spec):
    """Per-cell-type knobs.

    ``batch_sizes`` is the paper's ``Bsizes``: the set of supported batch
    sizes, whose maximum is the desired (throughput-optimal) batch size
    determined by offline benchmarking, and whose minimum is the smallest
    batch worth submitting as a follow-up task inside one scheduling round.
    ``priority`` orders cell types when several qualify (higher wins);
    decoder > encoder and internal > leaf in the paper's models.
    """

    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    priority: int = 0

    def __post_init__(self):
        sizes = sorted(set(int(b) for b in self.batch_sizes))
        if not sizes:
            raise ValueError("batch_sizes must be non-empty")
        if sizes[0] < 1:
            raise ValueError("batch sizes must be >= 1")
        self.batch_sizes = tuple(sizes)

    @property
    def max_batch(self) -> int:
        return self.batch_sizes[-1]

    @property
    def min_batch(self) -> int:
        return self.batch_sizes[0]

    def __repr__(self) -> str:
        return (
            f"CellTypeConfig(max={self.max_batch}, min={self.min_batch}, "
            f"priority={self.priority})"
        )


def _power_of_two_sizes(max_batch: int) -> tuple:
    sizes = []
    b = 1
    while b <= max_batch:
        sizes.append(b)
        b *= 2
    if sizes[-1] != max_batch:
        sizes.append(max_batch)
    return tuple(sizes)


class BatchingConfig(Spec):
    """Scheduler-wide configuration.

    ``max_tasks_to_submit`` bounds how many batched tasks one scheduling
    round pushes to a worker (paper default 5): small enough that other cell
    types get scheduled and new arrivals can join, large enough to keep the
    GPU busy across the scheduling gap.
    """

    default: Optional[CellTypeConfig] = None
    per_cell: Optional[Dict[str, CellTypeConfig]] = None
    max_tasks_to_submit: int = 5

    def __post_init__(self):
        if self.max_tasks_to_submit < 1:
            raise ValueError("max_tasks_to_submit must be >= 1")
        if self.default is None:
            self.default = CellTypeConfig()
        self.per_cell = dict(sorted((self.per_cell or {}).items()))

    @classmethod
    def with_max_batch(
        cls,
        max_batch: int,
        per_cell_max: Optional[Dict[str, int]] = None,
        per_cell_priority: Optional[Dict[str, int]] = None,
        max_tasks_to_submit: int = 5,
    ) -> "BatchingConfig":
        """Convenience constructor: power-of-two Bsizes up to ``max_batch``.

        ``per_cell_max`` overrides the maximum for specific cell types (the
        paper's BatchMaker-512,256 Seq2Seq configuration), and
        ``per_cell_priority`` assigns priorities by cell-type name.
        """
        per_cell: Dict[str, CellTypeConfig] = {}
        names = set(per_cell_max or {}) | set(per_cell_priority or {})
        for name in names:
            cap = (per_cell_max or {}).get(name, max_batch)
            prio = (per_cell_priority or {}).get(name, 0)
            per_cell[name] = CellTypeConfig(_power_of_two_sizes(cap), prio)
        return cls(
            default=CellTypeConfig(_power_of_two_sizes(max_batch)),
            per_cell=per_cell,
            max_tasks_to_submit=max_tasks_to_submit,
        )

    def for_cell(self, cell_name: str) -> CellTypeConfig:
        return self.per_cell.get(cell_name, self.default)

    @classmethod
    def from_dict(cls, data: Dict) -> "BatchingConfig":
        """``per_cell`` maps cell names to specs: each loads through
        :meth:`CellTypeConfig.from_dict` before the seam loads the rest."""
        per_cell = {
            name: CellTypeConfig.from_dict(cfg)
            for name, cfg in (data.get("per_cell") or {}).items()
        }
        return super().from_dict({**data, "per_cell": per_cell})
