"""Unit tests for Worker, Manager and the BatchMakerServer facade."""

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.cell_graph import CellGraph
from repro.core.request import InferenceRequest
from repro.core.subgraph import partition_into_subgraphs
from repro.core.task import BatchedTask
from repro.core.worker import Worker
from repro.gpu.costmodel import CostModel, LatencyTable
from repro.gpu.device import GPUDevice
from repro.models import GRUChainModel, LSTMChainModel
from repro.policies import bundle_from_names
from repro.sim.events import EventLoop
from tests.retention_helpers import keep_engine_state


def make_task(model, length=1):
    graph = CellGraph()
    model.unfold(graph, length)
    request = InferenceRequest(0, length, 0.0)
    request.graph = graph
    (sg,) = partition_into_subgraphs(graph, request)
    request.subgraphs = {sg.subgraph_id: sg}
    entries = []
    sg.commit(1, 0, entries)
    return BatchedTask(0, graph.cell_type_of(entries[0][1]), entries)


def make_worker(loop, completions, per_task_overhead=0.0, failures=None):
    """A one-device worker that logs ``(worker, task, now)`` per completion
    and ``(task, reason, now)`` per failure."""
    cost = CostModel(per_task_overhead=per_task_overhead, gather_overhead=0.0)
    cost.register("lstm", LatencyTable({1: 1e6, 512: 1e6}))  # 1 s per step
    device = GPUDevice(loop, 0)
    return Worker(
        worker_id=0,
        device=device,
        cost_model=cost,
        on_task_complete=lambda w, t: completions.append((w, t, loop.now())),
        on_task_failed=None
        if failures is None
        else lambda w, t, reason: failures.append((t, reason, loop.now())),
    )


class TestWorker:
    def test_submit_records_timing_and_completes(self):
        loop = EventLoop()
        completions = []
        worker = make_worker(loop, completions)
        task = make_task(LSTMChainModel())
        worker.submit(task)
        assert worker.outstanding == 1 and worker._inflight[0] is task
        loop.run()
        assert completions and completions[0][1] is task
        assert task.signal.time == completions[0][2] == pytest.approx(1.0)
        assert task.signal.time - task.duration == 0.0  # reserved at submission
        assert task.duration == pytest.approx(1.0)
        assert worker.outstanding == 0 and not worker._inflight
        assert worker.tasks_executed == 1
        assert worker.busy_time == pytest.approx(1.0)
        assert worker.device.busy_time(loop.now()) == worker.busy_time

    def test_double_submit_raises(self):
        loop = EventLoop()
        worker = make_worker(loop, [])
        task = make_task(LSTMChainModel())
        worker.submit(task)
        with pytest.raises(RuntimeError, match="twice"):
            worker.submit(task)

    def test_extra_cost_extends_duration(self):
        loop = EventLoop()
        completions = []
        worker = make_worker(loop, completions)
        task = make_task(LSTMChainModel())
        worker.submit(task, extra_cost=0.5)
        loop.run()
        assert completions[0][2] == pytest.approx(1.5)

    def test_overhead_added(self):
        loop = EventLoop()
        completions = []
        worker = make_worker(loop, completions, per_task_overhead=0.25)
        task = make_task(LSTMChainModel())
        worker.submit(task)
        loop.run()
        assert task.duration == pytest.approx(1.25)

    def test_fail_device_cancels_the_in_flight_signals_in_order(self):
        """Device loss: the worker cancels every signal it holds (the
        device keeps none), fails the tasks in submission order at the
        death instant, and the device's busy total stops there."""
        loop = EventLoop()
        completions, failures = [], []
        worker = make_worker(loop, completions, failures=failures)
        tasks = [make_task(LSTMChainModel()) for _ in range(3)]
        for task in tasks:
            worker.submit(task)
        signals = [task.signal for task in tasks]
        loop.run(until=1.5)
        assert [c[1] for c in completions] == tasks[:1]
        assert worker.fail_device() == tasks[1:]
        assert [s.cancelled for s in signals] == [False, True, True]
        assert failures == [(t, "device_lost", 1.5) for t in tasks[1:]]
        assert loop.pending() == 0 and not worker._inflight
        assert worker.fail_device() == []  # idempotent
        loop.run()
        assert len(completions) == 1
        assert worker.device.busy_time(loop.now()) == 1.5
        assert worker.busy_time == pytest.approx(1.0)  # retired work only


class TestManagerWiring:
    def test_invalid_worker_count_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchMakerServer(LSTMChainModel(), num_gpus=0)

    def test_on_request_finished_callback(self):
        server = BatchMakerServer(LSTMChainModel())
        server.submit(3)
        server.drain()
        assert len(server.finished) == 1
        assert server.finished[0].state.value == "finished"

    def test_migration_cost_charged_without_pinning(self):
        """With pinning disabled on multiple GPUs, at least some subgraph
        hops pay a cross-device copy (extra task duration)."""
        config = BatchingConfig.with_max_batch(2, max_tasks_to_submit=1)
        server = BatchMakerServer(
            LSTMChainModel(),
            config=config,
            num_gpus=2,
            policies=bundle_from_names(placement="unpinned"),
        )
        keep = keep_engine_state(server)
        for i in range(8):
            server.submit(12, arrival_time=i * 1e-5)
        server.drain()
        hops = set()
        for request in server.finished:
            (sg,) = keep.subgraphs(request)
            hops.add(sg.last_worker)
        assert len(server.finished) == 8
        assert hops <= {0, 1}

    def test_scheduler_and_processor_consistency(self):
        server = BatchMakerServer(LSTMChainModel())
        lengths = [5, 9, 2]
        for i, n in enumerate(lengths):
            server.submit(n, arrival_time=i * 1e-4)
        server.drain()
        assert server.manager.processor.total_nodes_processed == sum(lengths)
        total_batched = sum(
            b * c
            for b, c in server.manager.scheduler.batch_size_counts.items()
        )
        assert total_batched == sum(lengths)


class TestGRUModelServing:
    def test_gru_chain_serves_and_matches_reference(self):
        model = GRUChainModel(
            hidden_dim=12, vocab_size=30, embed_dim=6, real=True, seed=2
        )
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(4), real_compute=True
        )
        rng = np.random.default_rng(0)
        payloads = [
            [int(t) for t in rng.integers(0, 30, size=rng.integers(1, 9))]
            for _ in range(6)
        ]
        requests = [
            server.submit(p, arrival_time=i * 1e-4)
            for i, p in enumerate(payloads)
        ]
        server.drain()
        for request, payload in zip(requests, payloads):
            ref = model.reference_forward(payload)[0]
            np.testing.assert_allclose(
                np.asarray(request.result[0]), np.asarray(ref), atol=1e-6
            )

    def test_gru_sim_mode(self):
        server = BatchMakerServer(GRUChainModel())
        server.submit(10)
        server.drain()
        assert len(server.finished) == 1

    def test_gru_phases_and_cost(self):
        model = GRUChainModel()
        assert model.phases(7) == [("gru", 7)]
        assert model.default_cost_model().kernel_time("gru", 64) < 185e-6
