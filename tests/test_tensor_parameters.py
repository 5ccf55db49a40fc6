"""Tests for the parameter store."""

import numpy as np
import pytest

from repro.tensor.parameters import ParameterStore, glorot_uniform, orthogonal


class TestInitializers:
    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, (100, 50))
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.dtype == np.float32

    def test_orthogonal_columns(self):
        rng = np.random.default_rng(0)
        w = orthogonal(rng, (8, 8)).astype(np.float64)
        np.testing.assert_allclose(w @ w.T, np.eye(8), atol=1e-5)

    def test_orthogonal_rectangular_shapes(self):
        rng = np.random.default_rng(0)
        assert orthogonal(rng, (4, 9)).shape == (4, 9)
        assert orthogonal(rng, (9, 4)).shape == (9, 4)

    def test_orthogonal_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            orthogonal(np.random.default_rng(0), (3,))


class TestStore:
    def test_create_and_get(self):
        store = ParameterStore(seed=0)
        created = store.create("a/W", (3, 4))
        assert store.get("a/W") is created
        assert "a/W" in store

    def test_create_is_seeded_deterministic(self):
        a = ParameterStore(seed=7).create("w", (5, 5))
        b = ParameterStore(seed=7).create("w", (5, 5))
        np.testing.assert_array_equal(a, b)

    def test_duplicate_create_raises(self):
        store = ParameterStore()
        store.create("w", (2, 2))
        with pytest.raises(KeyError, match="already exists"):
            store.create("w", (2, 2))

    def test_unknown_get_raises(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            ParameterStore().get("missing")

    def test_zeros_and_normal_inits(self):
        store = ParameterStore(seed=0)
        z = store.create("z", (4,), init="zeros")
        np.testing.assert_array_equal(z, np.zeros(4, dtype=np.float32))
        n = store.create("n", (100,), init="normal")
        assert np.std(n) == pytest.approx(0.1, rel=0.5)

    def test_unknown_init_raises(self):
        with pytest.raises(ValueError, match="unknown initialiser"):
            ParameterStore().create("w", (2,), init="banana")

    def test_len_and_names(self):
        store = ParameterStore()
        store.create("a", (2, 3))
        store.create("b", (4,))
        assert len(store) == 2
        assert list(store.names()) == ["a", "b"]

    def test_save_load_roundtrip(self, tmp_path):
        store = ParameterStore(seed=3)
        store.create("x/W", (3, 3))
        store.create("x/b", (3,), init="zeros")
        path = tmp_path / "weights.npz"
        store.save(path)
        loaded = ParameterStore.load(path)
        assert sorted(loaded.names()) == sorted(store.names())
        np.testing.assert_array_equal(loaded.get("x/W"), store.get("x/W"))
