"""Tests for Algorithm 1: the batching scheduler."""

import pytest

from repro.core.cell_graph import CellGraph
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.core.request import InferenceRequest
from repro.core.scheduler import Scheduler
from repro.core.subgraph import partition_into_subgraphs
from repro.models import LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.models.tree_lstm import TreePayload
from repro.policies import bundle_from_names


class FakeWorker:
    def __init__(self, worker_id=0):
        self.worker_id = worker_id


def make_subgraphs(model, payload, request_id=0, start_id=0):
    graph = CellGraph()
    model.unfold(graph, payload)
    request = InferenceRequest(request_id, payload, 0.0)
    request.graph = graph
    subgraphs = partition_into_subgraphs(graph, request, start_id=start_id)
    request.subgraphs = {sg.subgraph_id: sg for sg in subgraphs}
    return subgraphs


def make_scheduler(model, config=None, policies=None):
    submitted = []
    config = config or BatchingConfig.with_max_batch(4)
    scheduler = Scheduler(
        config, submit=lambda task, worker: submitted.append(task), policies=policies
    )
    for ct in model.cell_types():
        scheduler.register_cell_type(ct)
    return scheduler, submitted


class TestRegistration:
    def test_duplicate_registration_raises(self):
        model = LSTMChainModel()
        scheduler, _ = make_scheduler(model)
        with pytest.raises(ValueError, match="registered twice"):
            scheduler.register_cell_type(model.cell_types()[0])

    def test_unregistered_subgraph_raises(self):
        lstm = LSTMChainModel()
        tree = TreeLSTMModel()
        scheduler, _ = make_scheduler(lstm)
        (sg,) = make_subgraphs(
            tree, TreePayload([-1], [-1], [1]), start_id=0
        )
        with pytest.raises(KeyError, match="unregistered"):
            scheduler.add_subgraph(sg)

    def test_admission_is_all_or_nothing(self):
        """One call admits a request's subgraphs together, so a subgraph of
        an unregistered cell type refuses the whole call before any is
        queued or placed.  A call mixing cell types puts each subgraph in
        its own queue, in order, with consecutive seqs per queue."""
        tree = TreeLSTMModel()
        policies = bundle_from_names(placement="fixed")
        policies.placement.prepare(2)
        scheduler, _ = make_scheduler(LSTMChainModel(), policies=policies)
        (leaf_type,) = [ct for ct in tree.cell_types() if ct.name == "tree_leaf"]
        scheduler.register_cell_type(leaf_type)
        subgraphs = make_subgraphs(tree, TreePayload.complete(4), request_id=1)
        leaves = [sg for sg in subgraphs if sg.cell_type_name == "tree_leaf"]
        assert len(leaves) == 4 and len(subgraphs) == 5
        with pytest.raises(KeyError, match="unregistered cell type 'tree_internal'"):
            scheduler.add_subgraph(*subgraphs)
        queue = scheduler._queues["tree_leaf"]
        assert not queue.subgraphs and not queue._entries
        assert queue.num_ready_nodes() == 0
        for sg in subgraphs:
            assert sg.owner is None and sg.queue_seq == -1
            assert sg.pinned is None and not sg.sticky  # no on_admit ran

        # A mixed call: each subgraph to its own queue, in order.
        (chain,) = make_subgraphs(LSTMChainModel(), 3, request_id=2, start_id=5)
        scheduler.add_subgraph(leaves[0], chain, *leaves[1:])
        assert [sg.queue_seq for sg in leaves] == [0, 1, 2, 3]
        assert list(queue.subgraphs.values()) == leaves
        assert queue._entries == [(sg.queue_seq, sg) for sg in leaves]
        assert queue.num_ready_nodes() == 4
        assert {(sg.pinned, sg.sticky) for sg in leaves} == {(1, True)}
        lstm = scheduler._queues["lstm"]
        assert chain.queue_seq == 0 and list(lstm.subgraphs.values()) == [chain]
        assert lstm.num_ready_nodes() == 1 and (chain.pinned, chain.sticky) == (0, True)


class TestBatchFormation:
    def test_batches_across_requests(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(model)
        for rid in range(3):
            (sg,) = make_subgraphs(model, 5, request_id=rid, start_id=rid)
            scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert submitted
        assert submitted[0].batch_size == 3  # one ready cell per chain

    def test_batch_capped_at_max_batch(self):
        model = LSTMChainModel()
        config = BatchingConfig.with_max_batch(2)
        scheduler, submitted = make_scheduler(model, config)
        for rid in range(5):
            (sg,) = make_subgraphs(model, 3, request_id=rid, start_id=rid)
            scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert all(t.batch_size <= 2 for t in submitted)

    def test_max_tasks_to_submit_bounds_one_round(self):
        model = LSTMChainModel()
        config = BatchingConfig.with_max_batch(4, max_tasks_to_submit=3)
        scheduler, submitted = make_scheduler(model, config)
        (sg,) = make_subgraphs(model, 10)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert len(submitted) == 3  # 3 successive chain steps pipelined

    def test_chain_steps_pipeline_within_round(self):
        """One request's successive cells land in successive tasks (the
        optimistic UpdateNodesDependency at work)."""
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(
            model, BatchingConfig.with_max_batch(4, max_tasks_to_submit=5)
        )
        (sg,) = make_subgraphs(model, 4)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert len(submitted) == 4
        node_ids = [task.entries[0][1] for task in submitted]
        assert node_ids == [0, 1, 2, 3]

    def test_exhausted_subgraph_leaves_queue(self):
        model = LSTMChainModel()
        scheduler, _ = make_scheduler(model)
        (sg,) = make_subgraphs(model, 2)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert sg.unsubmitted == 0 and sg.owner is None
        assert scheduler._queues["lstm"].subgraphs == {}

    def test_schedule_with_nothing_ready_returns_zero(self):
        model = LSTMChainModel()
        scheduler, _ = make_scheduler(model)
        assert scheduler.schedule(FakeWorker()) == 0


class TestMinBatchRule:
    def test_follow_up_task_below_min_batch_is_not_submitted(self):
        """Algorithm 1 line 16: after the first task, a batch smaller than
        Bsizes.Min() ends the round."""
        model = LSTMChainModel()
        config = BatchingConfig(
            default=CellTypeConfig(batch_sizes=(2, 4), priority=0),
            max_tasks_to_submit=5,
        )
        scheduler, submitted = make_scheduler(model, config)
        (sg,) = make_subgraphs(model, 5)  # one ready node at a time
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        # First task goes out regardless (num_tasks == 0); the follow-up
        # would be batch 1 < min 2, so the round stops at one task.
        assert len(submitted) == 1

    def test_first_task_always_submits_even_if_small(self):
        model = LSTMChainModel()
        config = BatchingConfig(
            default=CellTypeConfig(batch_sizes=(4, 8), priority=0)
        )
        scheduler, submitted = make_scheduler(model, config)
        (sg,) = make_subgraphs(model, 1)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert len(submitted) == 1
        assert submitted[0].batch_size == 1


class TestSelectionCriteria:
    def test_full_batch_cell_type_preferred(self):
        """Criterion (a): a type with >= max_batch ready nodes wins over a
        higher-priority type with fewer."""
        model = TreeLSTMModel()
        config = BatchingConfig.with_max_batch(
            4, per_cell_priority={"tree_internal": 5, "tree_leaf": 0}
        )
        scheduler, submitted = make_scheduler(model, config)
        # 4 single-leaf requests: 4 ready leaf cells, 0 ready internal.
        for rid in range(4):
            sgs = make_subgraphs(
                model, TreePayload.complete(1), rid, start_id=rid
            )
            for sg in sgs:
                scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert submitted[0].cell_type.name == "tree_leaf"
        assert submitted[0].batch_size == 4

    def test_priority_breaks_ties(self):
        """Criterion (c) + priority: with both cell types ready (below max
        batch, both idle), the higher-priority decoder is chosen first."""
        model = Seq2SeqModel()
        config = BatchingConfig.with_max_batch(
            64, per_cell_priority={"decoder": 1, "encoder": 0}
        )
        scheduler, submitted = make_scheduler(model, config)
        sgs_a = make_subgraphs(model, {"src": 3, "tgt_len": 3}, 0, 0)
        encoder_sg = next(s for s in sgs_a if s.cell_type_name == "encoder")
        scheduler.add_subgraph(encoder_sg)
        sgs_b = make_subgraphs(model, {"src": 3, "tgt_len": 3}, 1, 10)
        decoder_sg = next(s for s in sgs_b if s.cell_type_name == "decoder")
        decoder_sg._external_edges.clear()  # pretend its encoder finished
        scheduler.add_subgraph(decoder_sg)
        scheduler.schedule(FakeWorker())
        assert submitted[0].cell_type.name == "decoder"

    def test_idle_cell_type_preferred_over_busy_one(self):
        """Criterion (b): with no full batch anywhere, a type with zero
        running tasks beats one that already has tasks in flight."""
        model = Seq2SeqModel()
        config = BatchingConfig.with_max_batch(
            64, per_cell_priority={"decoder": 1, "encoder": 0}
        )
        scheduler, submitted = make_scheduler(model, config)
        sgs = make_subgraphs(model, {"src": 3, "tgt_len": 3})
        encoder_sg = next(s for s in sgs if s.cell_type_name == "encoder")
        scheduler.add_subgraph(encoder_sg)
        worker = FakeWorker()
        scheduler.schedule(worker)  # encoder tasks now running
        assert all(t.cell_type.name == "encoder" for t in submitted)
        n_encoder_tasks = len(submitted)
        # Release the decoder subgraph; encoder still has running tasks and
        # no ready nodes, so the decoder (idle, ready) is chosen.
        decoder_sg = next(s for s in sgs if s.cell_type_name == "decoder")
        decoder_sg._external_edges.clear()
        scheduler.add_subgraph(decoder_sg)
        scheduler.schedule(worker)
        assert submitted[n_encoder_tasks].cell_type.name == "decoder"


class TestPinningInScheduler:
    def test_pinned_subgraph_skipped_by_other_worker(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(model)
        (sg,) = make_subgraphs(model, 10)
        scheduler.add_subgraph(sg)
        w0, w1 = FakeWorker(0), FakeWorker(1)
        scheduler.schedule(w0)
        assert sg.pinned == 0
        count = len(submitted)
        assert scheduler.schedule(w1) == 0  # pinned to w0: w1 gets nothing
        assert len(submitted) == count

    def test_unpinned_mode_does_not_pin(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(
            model, policies=bundle_from_names(placement="unpinned")
        )
        (sg,) = make_subgraphs(model, 10)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker(0))
        assert sg.pinned is None
        assert sg.optimistic is False

    def test_running_task_accounting(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(model)
        (sg,) = make_subgraphs(model, 3)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        queue = scheduler._queues["lstm"]
        assert queue.running_tasks == len(submitted)
        for task in submitted:
            scheduler.task_completed(task)
        assert queue.running_tasks == 0
        with pytest.raises(RuntimeError, match="underflow"):
            scheduler.task_completed(submitted[0])


class TestRefusedHandOut:
    """``CellTypeQueue.commit`` drops a member whose take is its last before
    that member's ``commit``; a member that refuses the take must stay
    queued exactly as before the call."""

    @staticmethod
    def _snapshot(queue, sg):
        return (
            list(queue.subgraphs), sg.owner, queue.num_ready_nodes(),
            list(queue._entries), sg.unsubmitted, sg.ready_count, sg.pinned,
        )

    def test_overdrawn_last_take_stays_queued_in_order(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(
            model, policies=bundle_from_names(placement="unpinned")
        )
        (sg,) = make_subgraphs(model, 2)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker(0))  # step 0 out; step 1 waits on it
        assert len(submitted) == 1 and sg.unsubmitted == 1
        (before,) = make_subgraphs(model, 1, request_id=1, start_id=1)
        (after,) = make_subgraphs(model, 3, request_id=2, start_id=2)
        scheduler.add_subgraph(before, after)
        queue = scheduler._queues["lstm"]
        members, owner, ready, entries, *rest = self._snapshot(queue, sg)
        assert members == [sg.subgraph_id, 1, 2]

        with pytest.raises(RuntimeError, match="planned 1 nodes"):
            queue.commit([(before, 1), (sg, 1)], 0)
        # ``before`` took its last node and left; ``sg`` is as it was.
        assert before.owner is None and before.unsubmitted == 0
        assert self._snapshot(queue, sg) == (
            [sg.subgraph_id, 2], owner, ready - 1, entries, *rest
        )
        assert owner is queue
        assert queue.plan(0, 4) == [(after, 1)]

    def test_last_take_pinned_elsewhere_stays_queued(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(model)
        (sg,) = make_subgraphs(model, 6)
        scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker(0))  # five tasks, one step each
        assert len(submitted) == 5 and sg.unsubmitted == 1 and sg.pinned == 0
        queue = scheduler._queues["lstm"]
        snapshot = self._snapshot(queue, sg)

        with pytest.raises(RuntimeError, match="already pinned to worker 0"):
            queue.commit([(sg, 1)], 1)
        assert self._snapshot(queue, sg) == snapshot
        assert queue.plan(0, 4) == [(sg, 1)]

    def test_member_of_another_cell_type_is_refused_untouched(self):
        """The queue checks each member's cell type in its commit loop (the
        task built from the plan does not walk it again): a foreign member
        raises before anything of it changes, and the members before it
        stay committed, their ready count given back."""
        model = Seq2SeqModel()
        scheduler, _ = make_scheduler(model)
        encoder, decoder = make_subgraphs(model, {"src": 2, "tgt_len": 3})
        (first, _) = make_subgraphs(model, {"src": 1, "tgt_len": 1}, request_id=1, start_id=2)
        scheduler.add_subgraph(encoder, first)
        queue = scheduler._queues["encoder"]
        ready = queue.num_ready_nodes()
        untouched = (decoder.owner, decoder.unsubmitted, decoder.ready_count, decoder.pinned)

        with pytest.raises(ValueError, match="has type 'decoder', expected 'encoder'"):
            queue.commit([(first, 1), (decoder, 1)], 0)
        assert (decoder.owner, decoder.unsubmitted, decoder.ready_count, decoder.pinned) == untouched
        assert first.owner is None and first.unsubmitted == 0
        assert list(queue.subgraphs) == [encoder.subgraph_id]
        assert queue.num_ready_nodes() == ready - 1
        assert queue.plan(0, 4) == [(encoder, encoder.ready_count)]


class TestStats:
    def test_batch_size_histogram_and_mean(self):
        model = LSTMChainModel()
        scheduler, submitted = make_scheduler(model)
        for rid in range(2):
            (sg,) = make_subgraphs(model, 1, request_id=rid, start_id=rid)
            scheduler.add_subgraph(sg)
        scheduler.schedule(FakeWorker())
        assert scheduler.tasks_submitted == 1
        assert scheduler.batch_size_counts == {2: 1}
        assert scheduler.mean_batch_size() == 2.0

    def test_mean_batch_size_empty(self):
        model = LSTMChainModel()
        scheduler, _ = make_scheduler(model)
        assert scheduler.mean_batch_size() == 0.0
