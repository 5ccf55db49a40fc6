"""Additional property-based tests: event-loop ordering, stats coherence,
and error-path behaviour (failure injection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchMakerServer, BatchingConfig
from repro.gpu.costmodel import CostModel
from repro.metrics.latency import cdf_points, percentile
from repro.models import LSTMChainModel
from repro.sim.events import EventLoop


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_event_loop_executes_in_time_order(times):
    loop = EventLoop()
    fired = []
    for i, t in enumerate(times):
        loop.call_at(t, lambda t=t, i=i: fired.append((t, i)))
    loop.run()
    assert len(fired) == len(times)
    # Non-decreasing in time; ties broken by scheduling order.
    assert fired == sorted(fired, key=lambda pair: (pair[0],))
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1
    )
)
def test_percentiles_and_cdf_are_coherent(values):
    assert percentile(values, 0) == pytest.approx(min(values))
    assert percentile(values, 100) == pytest.approx(max(values))
    assert percentile(values, 50) <= percentile(values, 90) + 1e-9
    points = cdf_points(values)
    fractions = [f for _, f in points]
    assert fractions == sorted(fractions)
    assert points[-1][1] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 20), min_size=1, max_size=20),
    num_gpus=st.integers(1, 3),
)
def test_latency_decomposition_always_consistent(lengths, num_gpus):
    server = BatchMakerServer(
        LSTMChainModel(),
        config=BatchingConfig.with_max_batch(8),
        num_gpus=num_gpus,
    )
    for i, n in enumerate(lengths):
        server.submit(n, arrival_time=i * 1e-4)
    server.drain()
    for request in server.finished:
        assert request.latency == pytest.approx(
            request.queuing_time + request.computation_time
        )
        assert request.queuing_time >= 0
        assert request.computation_time > 0


class TestFailureInjection:
    def test_cell_missing_output_is_loud(self):
        """A buggy cell that drops an output fails the serve loudly rather
        than producing silent garbage."""
        from repro.core.cell import CellType
        from repro.cells.base import Cell

        class BrokenCell(Cell):
            def __init__(self):
                super().__init__("lstm", ("ids", "h", "c"), ("h", "c"))

            def num_operators(self):
                return 1

            def compute(self, inputs):
                return {"h": np.zeros((len(inputs["ids"]), 2))}  # no "c"

        model = LSTMChainModel()
        model._step_type = CellType.from_cell(BrokenCell())
        server = BatchMakerServer(
            model,
            cost_model=model.default_cost_model(),
            real_compute=True,
        )
        server.submit([1, 2])
        with pytest.raises(RuntimeError, match="did not produce outputs"):
            server.drain()

    def test_missing_cost_table_is_loud(self):
        cost = CostModel()  # no tables registered
        server = BatchMakerServer(LSTMChainModel(), cost_model=cost)
        server.submit(2)
        with pytest.raises(KeyError, match="no latency table"):
            server.drain()

    def test_model_extend_exceptions_propagate(self):
        class ExplodingModel(LSTMChainModel):
            def extend(self, graph, node_id, payload):
                raise RuntimeError("boom")

        server = BatchMakerServer(ExplodingModel())
        server.submit(1)
        with pytest.raises(RuntimeError, match="boom"):
            server.drain()
