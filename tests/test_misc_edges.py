"""Edge-case tests filling coverage gaps across modules."""

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.models import LSTMChainModel
from repro.tensor.graph import DataflowGraph
from repro.workload import FixedLengthDataset, LoadGenerator
from tests.retention_helpers import keep_engine_state


class TestDataflowGraphCycles:
    def test_cycle_detected(self):
        g = DataflowGraph("loop")
        g.placeholder("x")
        g.op("a", "sigmoid", "b")  # forward reference...
        g.op("b", "sigmoid", "a")  # ...closing a cycle
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_output_never_computed(self):
        g = DataflowGraph("g")
        g.placeholder("x")
        g.op("y", "sigmoid", "x")
        g.output("y")
        g.outputs.append("ghost")
        with pytest.raises(ValueError, match="never computed"):
            g.run({"x": np.zeros((1, 2))}, {})


class TestLoadGeneratorOverload:
    def test_deadline_with_no_survivors_raises(self):
        server = BatchMakerServer(
            LSTMChainModel(), config=BatchingConfig.with_max_batch(64)
        )
        generator = LoadGenerator(rate=100, num_requests=50, seed=0)
        # Deadline before anything can finish -> loud failure, not silence.
        with pytest.raises(RuntimeError, match="overloaded"):
            generator.run(server, FixedLengthDataset(500), deadline=1e-6)


class TestMigrationCost:
    def test_copy_cost_charged_for_cross_worker_move(self):
        """Directly exercise the manager's migration charge: a subgraph
        whose state lives on worker 0 pays the placement policy's copy when
        scheduled on 1, and nothing on 0; either way its state then lives
        where it ran."""
        server = BatchMakerServer(
            LSTMChainModel(),
            config=BatchingConfig.with_max_batch(4),
            num_gpus=2,
        )
        manager = server.manager
        keep = keep_engine_state(server)
        request = server.submit(2)
        server.drain()
        (sg,) = keep.subgraphs(request)

        class FakeTask:
            plan = [(sg, 1)]

        other_worker, same_worker = manager.workers[1], manager.workers[0]
        sg.last_worker = 0
        cost = manager._place(FakeTask(), other_worker)
        assert cost == manager.policies.placement.hop_cost(other_worker) > 0
        assert sg.last_worker == 1
        sg.last_worker = 0
        assert manager._place(FakeTask(), same_worker) == 0.0
        assert sg.last_worker == 0


class TestCellTypeErrors:
    def test_sim_only_cell_type_cannot_compute(self):
        from repro.core.cell import CellType

        ct = CellType("x", ("a",), ("b",))
        with pytest.raises(RuntimeError, match="no compute body"):
            ct.compute({"a": np.zeros(1)})

    def test_empty_name_rejected(self):
        from repro.core.cell import CellType

        with pytest.raises(ValueError):
            CellType("", ("a",), ("b",))


class TestRequestGuards:
    def test_double_finish_raises(self):
        from repro.core.request import InferenceRequest

        request = InferenceRequest(0, None, 0.0)
        request.mark_finished(1.0)
        with pytest.raises(RuntimeError, match="twice"):
            request.mark_finished(2.0)

    def test_unstarted_request_has_no_metrics(self):
        from repro.core.request import InferenceRequest

        request = InferenceRequest(0, None, 0.0)
        assert request.latency is None
        assert request.queuing_time is None
        assert request.computation_time is None

    def test_mark_started_is_idempotent(self):
        from repro.core.request import InferenceRequest

        request = InferenceRequest(0, None, 0.0)
        request.mark_started(1.0)
        request.mark_started(5.0)  # later cells don't move the start time
        assert request.start_time == 1.0


class TestRunnerPlotDir(object):
    def test_plot_dir_writes_svgs(self, tmp_path, capsys):
        from repro.experiments import runner

        assert runner.main(["fig5", "--quick", "--plot-dir", str(tmp_path)]) == 0
        written = list(tmp_path.glob("*.svg"))
        assert len(written) == 2  # graph + cellular timelines
        for path in written:
            assert path.read_text().startswith("<svg")
