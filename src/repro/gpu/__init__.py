"""Simulated GPU substrate.

The paper's testbed is 4 NVIDIA V100 GPUs; this package substitutes a
discrete-event model of those devices:

* :mod:`repro.gpu.costmodel` — batch-size -> kernel-time tables calibrated
  against the measurements the paper publishes in Figure 3 and §7.3 (LSTM
  step at h=1024: ~185 us at batch 64, ~784 us at batch 512, linear beyond).
* :mod:`repro.gpu.device` — a FIFO-stream device: work submitted to one
  stream runs in order; completion is signalled via callbacks (the analogue
  of the paper's signal-variable polling); cross-device copies cost
  latency + size/bandwidth.
"""

from repro.gpu.costmodel import (
    NAMED_TABLES,
    CostModel,
    LatencyTable,
    cpu_lstm_step_table,
    make_table,
    seq2seq_decoder_step_table,
    tree_internal_step_table,
    tree_leaf_step_table,
    v100_lstm_step_table,
)
from repro.gpu.device import GPUDevice, make_devices
from repro.gpu.energy import GOVERNORS, EnergyModel, EnergySpec, make_governor
from repro.gpu.memory import DEFAULT_STATE_BYTES, MemoryModel, MemorySpec

__all__ = [
    "CostModel",
    "LatencyTable",
    "NAMED_TABLES",
    "make_table",
    "GPUDevice",
    "make_devices",
    "EnergyModel",
    "EnergySpec",
    "GOVERNORS",
    "make_governor",
    "MemoryModel",
    "MemorySpec",
    "DEFAULT_STATE_BYTES",
    "v100_lstm_step_table",
    "cpu_lstm_step_table",
    "seq2seq_decoder_step_table",
    "tree_internal_step_table",
    "tree_leaf_step_table",
]
