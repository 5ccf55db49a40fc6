"""Tests for the calibrated cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.costmodel import (
    CostModel,
    LatencyTable,
    cpu_lstm_step_table,
    seq2seq_decoder_step_table,
    tree_internal_step_table,
    tree_leaf_step_table,
    v100_lstm_step_table,
)


class TestLatencyTable:
    def test_anchor_values_are_exact(self):
        table = LatencyTable({1: 100.0, 64: 200.0})
        assert table(1) == pytest.approx(100e-6)
        assert table(64) == pytest.approx(200e-6)

    def test_below_first_anchor_is_flat(self):
        table = LatencyTable({8: 100.0, 64: 200.0})
        assert table(1) == table(8)

    def test_beyond_last_anchor_is_linear(self):
        table = LatencyTable({1: 100.0, 512: 784.0})
        assert table(1024) == pytest.approx(2 * table(512))
        assert table(2048) == pytest.approx(4 * table(512))

    def test_interpolation_is_between_anchors(self):
        table = LatencyTable({64: 185.0, 512: 784.0})
        mid = table(128)
        assert 185e-6 < mid < 784e-6

    def test_monotone_nondecreasing(self):
        table = v100_lstm_step_table()
        times = [table(b) for b in range(1, 5000, 37)]
        assert all(t2 >= t1 - 1e-12 for t1, t2 in zip(times, times[1:]))

    def test_invalid_batch_raises(self):
        with pytest.raises(ValueError):
            v100_lstm_step_table()(0)

    def test_empty_anchors_raise(self):
        with pytest.raises(ValueError, match="non-empty"):
            LatencyTable({})

    def test_nonpositive_time_raises(self):
        with pytest.raises(ValueError):
            LatencyTable({1: 0.0})

    def test_scale(self):
        base = v100_lstm_step_table()
        doubled = base.scale(2.0)
        assert doubled(64) == pytest.approx(2 * base(64))

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            v100_lstm_step_table().scale(0.0)


class TestPaperCalibration:
    """Pin the values the paper states explicitly."""

    def test_lstm_batch64_is_185us(self):
        assert v100_lstm_step_table()(64) == pytest.approx(185e-6)

    def test_lstm_batch512_is_784us(self):
        assert v100_lstm_step_table()(512) == pytest.approx(784e-6)

    def test_lstm_doubles_past_512(self):
        table = v100_lstm_step_table()
        assert table(1024) == pytest.approx(2 * table(512), rel=0.01)

    def test_gpu_best_batch_is_512(self):
        sizes = [2 ** i for i in range(1, 13)]
        assert v100_lstm_step_table().best_batch(sizes) == 512

    def test_decoder_best_batch_is_256(self):
        sizes = [2 ** i for i in range(1, 11)]
        assert seq2seq_decoder_step_table().best_batch(sizes) == 256

    def test_decoder_step_costs_about_3x_encoder(self):
        # Decode phase is ~75% of Seq2Seq compute at equal step counts.
        ratio = seq2seq_decoder_step_table()(256) / v100_lstm_step_table()(256)
        assert 2.0 < ratio < 4.0

    def test_cpu_is_much_slower_than_gpu(self):
        assert cpu_lstm_step_table()(512) > 5 * v100_lstm_step_table()(512)

    def test_tree_internal_heavier_than_leaf(self):
        assert tree_internal_step_table()(64) > tree_leaf_step_table()(64)


class TestCostModel:
    def test_register_and_lookup(self):
        model = CostModel()
        model.register("lstm", v100_lstm_step_table())
        assert model.kernel_time("lstm", 64) == pytest.approx(185e-6)

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError, match="no latency table"):
            CostModel().kernel_time("nope", 1)

    def test_task_time_adds_overheads(self):
        model = CostModel(
            per_task_overhead=65e-6, gather_overhead=10e-6, launch_gap=2e-6
        )
        model.register("lstm", v100_lstm_step_table())
        expected = 185e-6 + 65e-6 + 10e-6 + 2e-6 * 11
        assert model.task_time("lstm", 64, num_operators=11) == pytest.approx(expected)

    def test_gather_can_be_skipped(self):
        model = CostModel(per_task_overhead=0.0, gather_overhead=30e-6)
        model.register("lstm", v100_lstm_step_table())
        with_gather = model.task_time("lstm", 64)
        without = model.task_time("lstm", 64, include_gather=False)
        assert with_gather - without == pytest.approx(30e-6)

    def test_default_overhead_matches_paper(self):
        # ~250 us per LSTM step at batch 64 vs 185 us kernel time (§7.3).
        model = CostModel()
        model.register("lstm", v100_lstm_step_table())
        assert model.task_time("lstm", 64) == pytest.approx(250e-6, rel=0.05)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            CostModel(per_task_overhead=-1.0)


@settings(max_examples=100, deadline=None)
@given(batch=st.integers(min_value=1, max_value=10000))
def test_throughput_bounded_by_saturation(batch):
    """items/s can never exceed the table's asymptotic (linear-regime) rate."""
    table = v100_lstm_step_table()
    asymptotic = 512 / table(512)
    assert table.throughput(batch) <= asymptotic * 1.0001


@settings(max_examples=100, deadline=None)
@given(
    b1=st.integers(min_value=1, max_value=4096),
    b2=st.integers(min_value=1, max_value=4096),
)
def test_batching_never_hurts_time_per_item(b1, b2):
    """Larger batches never take less total time, and never more time per
    item — the property that makes batching worthwhile at all."""
    table = v100_lstm_step_table()
    lo, hi = sorted((b1, b2))
    assert table(hi) >= table(lo) - 1e-12
    assert table(hi) / hi <= table(lo) / lo + 1e-12


def _preset_tables():
    """Every latency table a registry preset builds a server or cluster
    with — the fig servers (baselines included), each DVFS state of the
    energy presets, every replica class of the cluster presets — plus the
    named tables device classes re-calibrate from."""
    from repro.cluster import build_cluster
    from repro.gpu.costmodel import NAMED_TABLES
    from repro.registry import build_server, presets

    models = []
    for spec in presets.all_fig_specs().values():
        server = build_server(spec)
        manager = getattr(server, "manager", None)
        models.append(manager.cost_model if manager else server.cost_model)
        for extension in manager.extensions if manager else ():
            models.extend(getattr(extension, "cost_models", {}).values())
    for spec in presets.all_cluster_specs().values():
        models.extend(r.server.manager.cost_model for r in build_cluster(spec).replicas)
    tables = {id(t): t for model in models for t in model.tables().values()}
    for factory in NAMED_TABLES.values():
        table = factory()
        tables[id(table)] = table
    return list(tables.values())


def test_memoised_table_is_the_formula_bit_for_bit():
    """``LatencyTable`` answers each batch size once from its
    interpolation and then from a memo: for every table the presets build,
    every batch size up to twice the last anchor reads the un-memoised
    formula's bits, on the first call and on every later one."""
    tables = _preset_tables()
    names = {table.name for table in tables}
    assert {"v100-lstm-step-h1024", "v100-lstm-step-h1024@x3"} <= names
    assert any("@x" in name and "x3" not in name for name in names), "no DVFS state"
    for table in tables:
        last = table._batches[-1]
        for batch in range(1, 2 * last + 1):
            formula = table._interpolate(batch).hex()
            assert table(batch).hex() == formula, (table.name, batch)
            assert table(batch).hex() == formula, (table.name, batch)
        assert len(table._memo) == 2 * last


def test_batch_below_one_raises_and_memoises_nothing():
    table = v100_lstm_step_table()
    table(8)
    for batch in (0, -1, -64):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            table(batch)
    assert list(table._memo) == [8]


def _task_time_formula(model, cell_name, batch, operators, gather):
    """The formula ``CostModel.task_time`` memoises, computed through the
    table's interpolation: no memo on either level."""
    return (
        model.table_for(cell_name)._interpolate(batch)
        + model.per_task_overhead
        + (model.gather_overhead if gather else 0.0)
        + model.launch_gap * max(operators, 1)
    )


def test_memoised_task_time_is_the_formula_bit_for_bit():
    """``CostModel.task_time`` answers each ``(cell, batch, operators,
    gather)`` once from the formula and then from its memo (DESIGN.md
    §37): on the first call and on every later one it reads the formula's
    bits."""
    model = CostModel(per_task_overhead=35e-6, gather_overhead=30e-6, launch_gap=1e-6)
    model.register("lstm", v100_lstm_step_table())
    model.register("decoder", seq2seq_decoder_step_table())
    for cell_name in ("lstm", "decoder"):
        for batch in (1, 3, 64, 100, 512, 1000):
            for operators in (1, 11):
                for gather in (True, False):
                    formula = _task_time_formula(model, cell_name, batch, operators, gather)
                    for _ in range(2):
                        got = model.task_time(cell_name, batch, operators, gather)
                        assert got.hex() == formula.hex(), (cell_name, batch, operators, gather)
    assert model.task_time("lstm", 64) == model.task_time("lstm", 64, 1, True)


def test_register_after_a_read_changes_the_next_task_time():
    """The memo holds no answer past a new table: ``register`` clears it."""
    model = CostModel()
    model.register("lstm", v100_lstm_step_table())
    first = model.task_time("lstm", 64)
    assert model.task_time("lstm", 64) == first
    model.register("lstm", v100_lstm_step_table().scale(2.0))
    second = model.task_time("lstm", 64)
    assert second.hex() == _task_time_formula(model, "lstm", 64, 1, True).hex()
    assert second - first == pytest.approx(185e-6)
    model.register("gru", cpu_lstm_step_table())  # another cell clears it too
    assert model.task_time("lstm", 64) == second


def test_task_time_of_an_unknown_cell_raises_every_time():
    model = CostModel()
    for _ in range(2):
        with pytest.raises(KeyError, match="no latency table"):
            model.task_time("nope", 1)
    model.register("nope", v100_lstm_step_table())
    assert model.task_time("nope", 1) > 0
