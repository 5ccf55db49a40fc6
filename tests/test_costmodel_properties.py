"""Property-based tests on LatencyTable with randomly generated anchors."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gpu.costmodel import LatencyTable


@st.composite
def monotone_anchor_tables(draw):
    """Random tables whose anchors are monotone in time and non-increasing
    in per-item time — the physical regime all real devices live in."""
    n = draw(st.integers(min_value=2, max_value=6))
    batches = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=4096),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    times = [float(draw(st.floats(min_value=10.0, max_value=100.0)))]
    for b_prev, b_next in zip(batches, batches[1:]):
        # Grow total time by a factor in [1, batch ratio]: keeps per-item
        # time non-increasing while total time is non-decreasing.
        ratio = b_next / b_prev
        growth = draw(st.floats(min_value=1.0, max_value=ratio))
        times.append(times[-1] * growth)
    return LatencyTable(dict(zip(batches, times)))


@settings(max_examples=80, deadline=None)
@given(table=monotone_anchor_tables(), batch=st.integers(1, 8192))
def test_interpolated_times_positive_and_finite(table, batch):
    value = table(batch)
    assert value > 0
    assert math.isfinite(value)


@settings(max_examples=80, deadline=None)
@given(table=monotone_anchor_tables(), b1=st.integers(1, 8192), b2=st.integers(1, 8192))
def test_interpolation_preserves_anchor_monotonicity(table, b1, b2):
    lo, hi = sorted((b1, b2))
    assert table(hi) >= table(lo) - 1e-15
    assert table(hi) / hi <= table(lo) / lo + 1e-12


@settings(max_examples=50, deadline=None)
@given(table=monotone_anchor_tables())
def test_best_batch_is_supported_and_sane(table):
    anchors = list(table._batches)
    best = table.best_batch(anchors)
    assert best in anchors
    top = max(table.throughput(b) for b in anchors)
    assert table.throughput(best) >= 0.999 * top


@settings(max_examples=50, deadline=None)
@given(table=monotone_anchor_tables(), factor=st.floats(0.1, 10.0))
def test_scale_is_uniform(table, factor):
    scaled = table.scale(factor)
    for batch in (1, 7, 100, 5000):
        assert scaled(batch) == pytest.approx(table(batch) * factor, rel=1e-9)
