"""Tests for the NumPy operator library, including the batch-commutation
property cellular batching relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import ops


class TestActivations:
    def test_sigmoid_range_and_midpoint(self):
        x = np.linspace(-50, 50, 101)
        y = ops.sigmoid(x)
        assert np.all(y >= 0) and np.all(y <= 1)
        assert ops.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_extreme_values_do_not_overflow(self):
        y = ops.sigmoid(np.array([-1e4, 1e4]))
        assert y[0] == pytest.approx(0.0)
        assert y[1] == pytest.approx(1.0)

    def test_sigmoid_preserves_dtype(self):
        x = np.zeros(3, dtype=np.float32)
        assert ops.sigmoid(x).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_stable_at_plus_minus_500(self, dtype):
        """The split at zero keeps exp arguments non-positive, so ±500 must
        neither overflow nor warn in either float width (sigmoid now
        computes directly in the input dtype, no float64 round-trip)."""
        x = np.array([-500.0, 500.0], dtype=dtype)
        with np.errstate(over="raise", invalid="raise"):
            y = ops.sigmoid(x)
        assert y.dtype == dtype
        assert y[0] == pytest.approx(0.0, abs=1e-30)
        assert y[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(y))

    def test_sigmoid_float32_matches_float64_reference(self):
        x64 = np.linspace(-30, 30, 61)
        y32 = ops.sigmoid(x64.astype(np.float32))
        np.testing.assert_allclose(y32, ops.sigmoid(x64), atol=1e-6)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(ops.tanh(x), np.tanh(x))

    def test_relu(self):
        np.testing.assert_array_equal(
            ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((4, 7))
        np.testing.assert_allclose(ops.softmax(x).sum(axis=-1), np.ones(4), atol=1e-12)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        np.testing.assert_allclose(ops.softmax(x), ops.softmax(x + 100.0), atol=1e-12)

    def test_large_values_are_stable(self):
        x = np.array([[1e4, 1e4 - 1.0]])
        y = ops.softmax(x)
        assert np.isfinite(y).all()

    def test_log_softmax_is_log_of_softmax(self):
        x = np.random.default_rng(2).standard_normal((2, 6))
        np.testing.assert_allclose(
            ops.log_softmax(x), np.log(ops.softmax(x)), atol=1e-10
        )


class TestArgmaxConcatSplit:
    def test_argmax_per_row(self):
        x = np.array([[1.0, 3.0, 2.0], [5.0, 0.0, 4.0]])
        np.testing.assert_array_equal(ops.argmax(x), [1, 0])

    def test_concat_then_split_roundtrip(self):
        a = np.ones((2, 3))
        b = np.zeros((2, 3))
        joined = ops.concat([a, b], axis=-1)
        assert joined.shape == (2, 6)
        back = ops.split(joined, 2, axis=-1)
        np.testing.assert_array_equal(back[0], a)
        np.testing.assert_array_equal(back[1], b)


class TestEmbeddingLookup:
    def test_basic_lookup(self):
        table = np.arange(12.0).reshape(4, 3)
        out = ops.embedding_lookup(table, np.array([2, 0]))
        np.testing.assert_array_equal(out[0], table[2])
        np.testing.assert_array_equal(out[1], table[0])

    def test_out_of_range_raises(self):
        table = np.zeros((4, 3))
        with pytest.raises(IndexError):
            ops.embedding_lookup(table, np.array([4]))
        with pytest.raises(IndexError):
            ops.embedding_lookup(table, np.array([-1]))

    def test_non_1d_ids_raise(self):
        with pytest.raises(ValueError, match="1-D"):
            ops.embedding_lookup(np.zeros((4, 3)), np.zeros((2, 2), dtype=int))


class TestGatherScatter:
    def test_stack_rows_from_vectors(self):
        rows = [np.full(3, i, dtype=float) for i in range(4)]
        batched = ops.stack_rows(rows)
        assert batched.shape == (4, 3)
        np.testing.assert_array_equal(batched[2], rows[2])

    def test_stack_rows_squeezes_leading_one(self):
        rows = [np.ones((1, 3)), np.zeros((1, 3))]
        assert ops.stack_rows(rows).shape == (2, 3)

    def test_stack_rows_of_scalars(self):
        batched = ops.stack_rows([np.asarray(3), np.asarray(5)])
        np.testing.assert_array_equal(batched, [3, 5])


@settings(max_examples=50, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_batching_commutes_with_rowwise_ops(batch, dim, seed):
    """The core soundness property of cellular batching: running a batched
    op equals stacking the per-row results, for every op used in cells."""
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(dim) for _ in range(batch)]
    batched = ops.stack_rows(rows)
    for fn in (ops.sigmoid, ops.tanh, ops.relu):
        together = fn(batched)
        separate = ops.stack_rows([fn(r) for r in rows])
        np.testing.assert_allclose(together, separate, atol=1e-12)
    weight = rng.standard_normal((dim, 3))
    np.testing.assert_allclose(
        ops.matmul(batched, weight),
        ops.stack_rows([r @ weight for r in rows]),
        atol=1e-12,
    )
