"""The O(queue) scheduler scans, kept as the oracle for the eligibility lists.

Until DESIGN.md §21 this was a second scheduler path in ``src/``, selected
by a ``BatchingConfig`` option: ``FormBatchedTask`` as one FIFO scan over
every queued subgraph, and the queue's ready-node count as a sum over the
same.  The equivalence, policy, fault and interleaving suites hold
``CellTypeQueue.plan`` and the incremental ``_ready_total`` to them — same
plans, same counts, same outcome fingerprints.
"""

from functools import partial

from repro.policies.base import BatchFormationPolicy, Plan
from repro.policies.defaults import PaperBatchFormation


class BruteForceFormation(BatchFormationPolicy):
    """``PaperBatchFormation`` by a full FIFO scan past ineligible
    subgraphs, reading no index."""

    name = PaperBatchFormation.name

    def form(self, queue, worker) -> Plan:
        plan: Plan = []
        budget = queue.config.max_batch
        for sg in queue.subgraphs.values():
            if budget == 0:
                break
            if sg.pinned is not None and sg.pinned != worker.worker_id:
                continue
            take = min(sg.ready_count, budget)
            if take > 0:
                plan.append((sg, take))
                budget -= take
        return plan


def recount_ready_nodes(queue) -> int:
    """``queue.num_ready_nodes()`` by rescanning the queue."""
    return sum(sg.ready_count for sg in queue.subgraphs.values())


def install_reference_scans(server):
    """Make ``server`` schedule by the brute-force scans: the FIFO scan
    takes the place of the paper formation in the bundle — or in a
    wrapper's ``.inner`` (lazy kick, memory aware) — and every queue counts
    its ready nodes by rescanning.  Returns ``server``."""
    scheduler = server.manager.scheduler
    policies = scheduler.policies
    wrapper = policies.formation
    if type(wrapper) is PaperBatchFormation:
        policies.formation = BruteForceFormation()
    elif type(getattr(wrapper, "inner", None)) is PaperBatchFormation:
        wrapper.inner = BruteForceFormation()
    else:
        raise TypeError(f"no paper formation to replace in {wrapper!r}")
    for queue in scheduler._queues.values():
        queue.num_ready_nodes = partial(recount_ready_nodes, queue)
    return server
