"""Unit tests for the device memory model (``repro.gpu.memory``).

The model's contract is what the rest of the memory stack leans on:
``reserve`` refuses rather than overcommits (so ``reserved <= capacity``
holds by construction), ``release`` is strict (underflow raises at the
fault site), and the accounting telescopes to zero when every request
terminates.  ``MemorySpec`` is plain declarative data with an exact JSON
round trip, the same contract as ``SLAConfig``.
"""

import pytest

from repro.gpu import GPUDevice
from repro.gpu.memory import DEFAULT_STATE_BYTES, MemoryModel, MemorySpec
from repro.sim.events import EventLoop
from tests.oracles.reference_values import release_request


# -- MemorySpec -------------------------------------------------------------


class TestMemorySpec:
    def test_round_trip(self):
        spec = MemorySpec(
            capacity=1 << 20,
            state_bytes=4096,
            weights={"encoder": 65536, "decoder": 98304},
            admission_free_bytes=16384,
        )
        assert MemorySpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_minimal(self):
        spec = MemorySpec(capacity=8192)
        data = spec.to_dict()
        assert data == {"capacity": 8192, "state_bytes": DEFAULT_STATE_BYTES}
        assert MemorySpec.from_dict(data) == spec
        assert spec.weights == {}
        assert spec.admission_free_bytes is None

    def test_replace(self):
        spec = MemorySpec(capacity=8192, admission_free_bytes=1024)
        bigger = spec.replace(capacity=16384)
        assert bigger.capacity == 16384
        assert bigger.admission_free_bytes == 1024
        # None removes the key.
        assert spec.replace(admission_free_bytes=None).admission_free_bytes is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"capacity": -1},
            {"capacity": 8192, "state_bytes": 0},
            {"capacity": 8192, "weights": {"cell": -1}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MemorySpec(**kwargs)


# -- MemoryModel ------------------------------------------------------------


class TestMemoryModel:
    def test_reserve_refuses_overcommit_with_no_partial_effect(self):
        mem = MemoryModel(capacity=100)
        assert mem.reserve(1, 60)
        assert not mem.reserve(2, 50)  # would hit 110
        assert mem.state_reserved == 60
        assert mem.holds(2) == 0
        assert mem.reserve(2, 40)  # exactly full is fine
        assert mem.free() == 0
        assert mem.reserved == mem.capacity

    def test_release_is_strict(self):
        mem = MemoryModel(capacity=100)
        mem.reserve(1, 30)
        with pytest.raises(ValueError):
            mem.release(1, 31)
        with pytest.raises(ValueError):
            mem.release(2, 1)  # never reserved anything
        mem.release(1, 30)
        assert mem.state_reserved == 0
        assert mem.holds(1) == 0

    def test_telescoping_to_zero(self):
        mem = MemoryModel(capacity=1000)
        for rid in range(5):
            for _ in range(rid + 1):  # growing footprints
                assert mem.reserve(rid, 10)
        assert mem.live_requests() == 5
        assert mem.state_reserved == sum(10 * (r + 1) for r in range(5))
        for rid in range(5):
            freed = release_request(mem, rid)
            assert freed == 10 * (rid + 1)
        assert mem.state_reserved == 0
        assert mem.live_requests() == 0
        assert release_request(mem, 99) == 0  # no reservation frees nothing

    def test_weights_count_against_capacity(self):
        mem = MemoryModel(capacity=100)
        mem.load_weights("encoder", 40)
        assert mem.weight_bytes == 40
        assert mem.free() == 60
        assert not mem.reserve(1, 61)
        # Reloading the same cell type replaces, not accumulates.
        mem.load_weights("encoder", 50)
        assert mem.weight_bytes == 50
        with pytest.raises(ValueError):
            mem.load_weights("decoder", 51)  # config error, not back-pressure

    def test_peak_reserved_high_water(self):
        mem = MemoryModel(capacity=100)
        mem.load_weights("cell", 20)
        mem.reserve(1, 50)
        mem.reserve(2, 30)
        release_request(mem, 1)
        assert mem.peak_reserved == 100
        assert mem.reserved == 50

    def test_reset_clears_state_and_weights(self):
        mem = MemoryModel(capacity=100)
        mem.load_weights("cell", 20)
        mem.reserve(1, 30)
        mem.reset()
        assert mem.reserved == 0
        assert mem.weight_bytes == 0
        assert mem.holds(1) == 0
        assert mem.free() == mem.capacity

    def test_from_spec(self):
        spec = MemorySpec(
            capacity=1000, state_bytes=10, weights={"a": 100, "b": 200}
        )
        mem = MemoryModel.from_spec(spec)
        assert mem.capacity == 1000
        assert mem.weight_bytes == 300
        assert mem.weights == {"a": 100, "b": 200}
        assert mem.free() == 700

    def test_negative_amounts_raise(self):
        mem = MemoryModel(capacity=100)
        with pytest.raises(ValueError):
            mem.reserve(1, -1)
        with pytest.raises(ValueError):
            mem.release(1, -1)
        with pytest.raises(ValueError):
            mem.load_weights("cell", -1)
        with pytest.raises(ValueError):
            MemoryModel(capacity=0)


def test_device_memory_defaults_to_none():
    """The time-only device model is untouched: no memory model unless a
    MemorySpec installs one."""
    device = GPUDevice(EventLoop(), device_id=0)
    assert device.memory is None
