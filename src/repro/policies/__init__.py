"""Pluggable scheduling policies — Algorithm 1 as composable pieces.

The paper's scheduler interleaves three separable concerns.  This package
factors them into three interfaces so that ablations (§6) and newer
policies (SLA-aware admission as in LazyBatching, energy/throughput
variants as in E-BATCH) are policy swaps rather than code forks:

* :class:`QueuePriorityPolicy` — which cell-type queue to serve next
  (Algorithm 1 lines 5-10: full-batch > starved > any, tie-broken by
  configured priority).
* :class:`PlacementPolicy` — where a subgraph's work runs: pin-to-GPU
  locality, cross-device migration cost, retry placement and device-loss
  repinning.
* :class:`BatchFormationPolicy` — which ready nodes of the chosen queue
  form the next batched task (eligibility, FIFO scan order, max-batch
  cut).

:class:`PolicyBundle` groups one of each.  ``bundle_from_names()`` with no
override is the paper's Algorithm 1 — with it the engine is bit-identical
(fixed seed) to the pre-policy-layer scheduler, which
``tests/test_policies.py`` fingerprint-checks.

Named constructors (``make_priority("flat")`` etc.) back the declarative
:mod:`repro.registry` specs.
"""

from repro.policies.base import (
    BatchFormationPolicy,
    PlacementPolicy,
    PolicyBundle,
    QueuePriorityPolicy,
)
from repro.policies.defaults import (
    PaperBatchFormation,
    PaperQueuePriority,
    PinnedPlacement,
)
from repro.policies.memory import MemoryAwareFormation
from repro.policies.slo import LazyKickPolicy
from repro.policies.variants import (
    FixedPlacement,
    FlatQueuePriority,
    LongestQueueFirst,
    NoMixFormation,
    UnpinnedPlacement,
)

PRIORITY_POLICIES = {
    "paper": PaperQueuePriority,
    "flat": FlatQueuePriority,
    "longest_queue": LongestQueueFirst,
}

PLACEMENT_POLICIES = {
    "pinned": PinnedPlacement,
    "unpinned": UnpinnedPlacement,
    "fixed": FixedPlacement,
}

FORMATION_POLICIES = {
    "paper": PaperBatchFormation,
    "no_mix": NoMixFormation,
    "lazy_kick": LazyKickPolicy,
    "memory_aware": MemoryAwareFormation,
}


def make_priority(name: str) -> QueuePriorityPolicy:
    """A fresh queue-priority policy by registry name."""
    return _make(PRIORITY_POLICIES, name, "queue-priority")


def make_placement(name: str) -> PlacementPolicy:
    """A fresh placement policy by registry name."""
    return _make(PLACEMENT_POLICIES, name, "placement")


def make_formation(name: str) -> BatchFormationPolicy:
    """A fresh batch-formation policy by registry name."""
    return _make(FORMATION_POLICIES, name, "batch-formation")


def _make(registry, name, what):
    cls = registry.get(name)
    if cls is None:
        raise KeyError(f"unknown {what} policy {name!r} (have: {sorted(registry)})")
    return cls()


def bundle_from_names(
    priority: "str | None" = None,
    placement: "str | None" = None,
    formation: "str | None" = None,
) -> PolicyBundle:
    """A fresh :class:`PolicyBundle` by registry names.  An unnamed slot
    takes the paper's policy (three-tier priority, pinned placement, FIFO
    formation), so a priority-only swap leaves placement pinned.  The
    scheduler's default, and the hook the ablation experiments and
    :mod:`repro.registry` specs use to express policy swaps declaratively.
    """
    return PolicyBundle(
        make_priority(priority or "paper"),
        make_placement(placement or "pinned"),
        make_formation(formation or "paper"),
    )


__all__ = [
    "QueuePriorityPolicy",
    "PlacementPolicy",
    "BatchFormationPolicy",
    "PolicyBundle",
    "PaperQueuePriority",
    "PinnedPlacement",
    "PaperBatchFormation",
    "FlatQueuePriority",
    "LongestQueueFirst",
    "UnpinnedPlacement",
    "FixedPlacement",
    "NoMixFormation",
    "LazyKickPolicy",
    "MemoryAwareFormation",
    "PRIORITY_POLICIES",
    "PLACEMENT_POLICIES",
    "FORMATION_POLICIES",
    "make_priority",
    "make_placement",
    "make_formation",
    "bundle_from_names",
]
