"""The policy layer: default-bundle bit-identity and variant behaviour.

The tentpole guarantee: running the engine with the *default*
:class:`~repro.policies.PolicyBundle` — whether derived implicitly from
``policies=None``, constructed explicitly, or assembled by registry name — is
bit-identical (fixed seed, fast path on or off) to the engine's
decisions.  Variants must run to completion, and every bundled policy
must keep the fast-path ready counters consistent with a brute-force
recount across evictions.
"""

import itertools
import random

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.core.scheduler import Scheduler
from repro.core.subgraph import partition_into_subgraphs
from repro.models import LSTMChainModel, Seq2SeqModel
from repro.policies import (
    FORMATION_POLICIES,
    PLACEMENT_POLICIES,
    PRIORITY_POLICIES,
    PaperBatchFormation,
    PaperQueuePriority,
    PinnedPlacement,
    PolicyBundle,
    UnpinnedPlacement,
    bundle_from_names,
    make_formation,
    make_placement,
    make_priority,
)
from repro.workload import LoadGenerator, Seq2SeqDataset
from tests.oracles.bruteforce_scheduler import (
    install_reference_scans,
    recount_ready_nodes,
)


def _fingerprint(server):
    generator = LoadGenerator(rate=3000, num_requests=600, seed=7)
    result = generator.run(server, Seq2SeqDataset(seed=5))
    scheduler = server.manager.scheduler
    summary = result.summary
    return {
        "tasks_submitted": scheduler.tasks_submitted,
        "batch_size_counts": dict(scheduler.batch_size_counts),
        "latencies": tuple(summary.stats.latencies),
        "queuing": tuple(summary.stats.queuing),
    }


def _seq2seq_config(**overrides):
    return BatchingConfig.with_max_batch(
        512,
        per_cell_max={"decoder": 256},
        per_cell_priority={"decoder": 1, "encoder": 0},
        **overrides,
    )


def _server(config, policies=None, indexed=True):
    """``indexed=False`` schedules by the brute-force scans of
    ``tests/oracles/bruteforce_scheduler.py``."""
    server = BatchMakerServer(
        Seq2SeqModel(), config=config, num_gpus=2, policies=policies
    )
    return server if indexed else install_reference_scans(server)


class TestDefaultBundleBitIdentity:
    @pytest.mark.parametrize("indexed", [True, False])
    def test_explicit_default_bundle_matches_implicit(self, indexed):
        """policies=None and an explicit bundle of the paper's three
        policies decide identically — the refactor moved code, not
        behaviour."""
        config = _seq2seq_config()
        implicit = _fingerprint(_server(config, indexed=indexed))
        paper = PolicyBundle(
            PaperQueuePriority(), PinnedPlacement(), PaperBatchFormation()
        )
        explicit = _fingerprint(_server(config, policies=paper, indexed=indexed))
        assert implicit == explicit

    @pytest.mark.parametrize("indexed", [True, False])
    def test_bundle_assembled_by_name_matches(self, indexed):
        config = _seq2seq_config()
        named = bundle_from_names(
            priority="paper", placement="pinned", formation="paper"
        )
        assert _fingerprint(_server(config, indexed=indexed)) == _fingerprint(
            _server(config, policies=named, indexed=indexed)
        )

    def test_unpinned_swap_matches_pinning_flag(self):
        """The pinning ablation is the placement named ``unpinned`` (the
        ``pinning=`` config flag that used to select it is gone): the named
        swap decides like a hand-built bundle around ``UnpinnedPlacement``,
        and unlike the pinned default."""
        hand_built = PolicyBundle(
            PaperQueuePriority(), UnpinnedPlacement(), PaperBatchFormation()
        )
        flag = _fingerprint(_server(_seq2seq_config(), policies=hand_built))
        swap = _fingerprint(
            _server(
                _seq2seq_config(),
                policies=bundle_from_names(placement="unpinned"),
            )
        )
        assert flag == swap != _fingerprint(_server(_seq2seq_config()))
        with pytest.raises(TypeError, match="pinning"):
            BatchingConfig(pinning=False)

    def test_flat_priority_matches_zeroed_priorities(self):
        """The flat queue policy == configuring every priority to zero."""
        zeroed = BatchingConfig.with_max_batch(
            512,
            per_cell_max={"decoder": 256},
            per_cell_priority={"decoder": 0, "encoder": 0},
        )
        flag = _fingerprint(_server(zeroed))
        swap = _fingerprint(
            _server(
                _seq2seq_config(),
                policies=bundle_from_names(priority="flat"),
            )
        )
        assert flag == swap

    def test_default_names(self):
        assert bundle_from_names().names() == {
            "priority": "paper",
            "placement": "pinned",
            "formation": "paper",
        }
        server = _server(_seq2seq_config())
        assert server.policies.names() == bundle_from_names().names()
        assert bundle_from_names(placement="unpinned").names()["placement"] == "unpinned"


class TestVariantsRun:
    """Every registered policy runs a small load to completion."""

    @pytest.mark.parametrize("priority", sorted(PRIORITY_POLICIES))
    def test_priority_variants(self, priority):
        self._drain(bundle_from_names(priority=priority))

    @pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
    def test_placement_variants(self, placement):
        self._drain(bundle_from_names(placement=placement))

    @pytest.mark.parametrize("formation", sorted(FORMATION_POLICIES))
    def test_formation_variants(self, formation):
        self._drain(bundle_from_names(formation=formation))

    @staticmethod
    def _drain(bundle):
        server = _server(_seq2seq_config(), policies=bundle)
        generator = LoadGenerator(rate=2000, num_requests=200, seed=7)
        result = generator.run(server, Seq2SeqDataset(seed=5))
        assert len(server.finished) == 200
        assert all(lat > 0 for lat in result.summary.stats.latencies)

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            make_priority("nope")
        with pytest.raises(KeyError):
            make_placement("nope")
        with pytest.raises(KeyError):
            make_formation("nope")


class _FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id


def _loaded_scheduler(bundle, num_requests=48, num_workers=4):
    """A standalone scheduler holding chain subgraphs under ``bundle``."""
    model = LSTMChainModel()
    config = BatchingConfig.with_max_batch(8, max_tasks_to_submit=2)
    bundle.placement.prepare(num_workers)
    scheduler = Scheduler(config, submit=lambda task, worker: None, policies=bundle)
    for cell_type in model.cell_types():
        scheduler.register_cell_type(cell_type)
    requests = []
    for rid in range(num_requests):
        graph = CellGraph()
        model.unfold(graph, 12)
        request = InferenceRequest(rid, 12, 0.0)
        request.graph = graph
        subgraphs = partition_into_subgraphs(graph, request, start_id=rid * 8)
        request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
        for sg in subgraphs:
            scheduler.add_subgraph(sg)
        requests.append(request)
    return scheduler, requests


ALL_BUNDLES = sorted(
    itertools.product(
        sorted(PRIORITY_POLICIES), sorted(PLACEMENT_POLICIES), sorted(FORMATION_POLICIES)
    )
)


class TestEvictionCounterConsistency:
    """Property: after any interleaving of scheduling and eviction, the
    incremental ready counter of every queue equals a brute-force recount —
    under every bundled policy combination."""

    @pytest.mark.parametrize("priority,placement,formation", ALL_BUNDLES)
    def test_evict_keeps_counters_exact(self, priority, placement, formation):
        bundle = PolicyBundle(
            priority=make_priority(priority),
            placement=make_placement(placement),
            formation=make_formation(formation),
        )
        scheduler, requests = _loaded_scheduler(bundle)
        rng = random.Random(f"{priority}/{placement}/{formation}")
        workers = [_FakeWorker(i) for i in range(4)]
        victims = rng.sample(requests, k=len(requests) // 3)
        for step, victim in enumerate(victims):
            # A few scheduling rounds between evictions, on rotating workers.
            for _ in range(rng.randrange(3)):
                scheduler.schedule(workers[step % len(workers)])
            scheduler.evict_request(victim)
            self._assert_counters_exact(scheduler)
        # Drain what's left; counters must track every commit too.
        for round_robin in range(64):
            if scheduler.schedule(workers[round_robin % len(workers)]) == 0:
                if all(
                    recount_ready_nodes(q) == 0
                    for q in scheduler._queues.values()
                ):
                    break
        self._assert_counters_exact(scheduler)

    @staticmethod
    def _assert_counters_exact(scheduler):
        for queue in scheduler._queues.values():
            assert queue.num_ready_nodes() == recount_ready_nodes(queue)
