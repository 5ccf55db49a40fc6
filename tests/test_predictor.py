"""Property-based tests for :class:`repro.policies.LatencyPredictor`.

The predictor sits on the scheduling hot path (lazy-kick slack, routing,
admission), so its predictions must be unconditionally safe: finite and
non-negative after *any* observation sequence — including garbage samples
(NaN, infinities, negatives), which the ingestion gate must refuse — and
monotone in queue depth, so a longer queue never predicts an earlier
completion.  State is a pure function of the observation sequence, which
makes serial and ``--jobs``-forked sweeps bit-identical.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import common, fig_slo
from repro.policies import LatencyPredictor
from repro.workload import FixedLengthDataset

# Observation samples: mostly plausible seconds, salted with the garbage
# the ingestion gate must refuse (NaN, +/-inf, negatives).
_samples = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=0.0, allow_nan=False),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)

_observations = st.lists(
    st.one_of(
        st.tuples(st.just("task"), _samples, st.integers(0, 64)),
        st.tuples(st.just("request"), _samples, _samples),
        st.tuples(st.just("gap"), _samples, st.just(None)),
    ),
    max_size=60,
)


def _feed(predictor, observations):
    for kind, a, b in observations:
        if kind == "task":
            predictor.observe_task(a, b)
        elif kind == "request":
            predictor.observe_request(a, queue_time=b, service_time=b)
        else:
            predictor.observe_gap(a)


@settings(max_examples=120, deadline=None)
@given(observations=_observations, depth=st.integers(0, 10_000))
def test_predictions_finite_and_non_negative(observations, depth):
    predictor = LatencyPredictor()
    _feed(predictor, observations)
    for node_count in (None, 0, 1, 24, 10_000):
        service = predictor.predicted_service(node_count)
        assert math.isfinite(service) and service >= 0.0
    delay = predictor.predicted_queue_delay(depth)
    assert math.isfinite(delay) and delay >= 0.0
    delay = predictor.predicted_queue_delay(depth, backlog=0.25)
    assert math.isfinite(delay) and delay >= 0.25
    for value in predictor.state():
        if isinstance(value, tuple):
            assert all(math.isfinite(v) for v in value)
        elif isinstance(value, float):
            assert math.isfinite(value) and value >= 0.0


@settings(max_examples=120, deadline=None)
@given(
    observations=_observations,
    depths=st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=2, max_size=6),
    backlog=st.floats(0.0, 1.0, allow_nan=False),
)
def test_queue_delay_monotone_in_depth(observations, depths, backlog):
    """A deeper queue never predicts an earlier completion."""
    predictor = LatencyPredictor()
    _feed(predictor, observations)
    ordered = sorted(depths)
    delays = [
        predictor.predicted_queue_delay(d, backlog=backlog) for d in ordered
    ]
    assert all(a <= b + 1e-12 for a, b in zip(delays, delays[1:]))


@settings(max_examples=60, deadline=None)
@given(observations=_observations)
def test_state_is_pure_function_of_observations(observations):
    """Two predictors fed the same sequence agree bit for bit."""
    a, b = LatencyPredictor(), LatencyPredictor()
    _feed(a, observations)
    _feed(b, observations)
    assert a.state() == b.state()


def test_garbage_observations_are_refused():
    predictor = LatencyPredictor()
    predictor.observe_task(float("nan"), 4)
    predictor.observe_task(float("inf"), 4)
    predictor.observe_task(-1.0, 4)
    predictor.observe_task(1e-3, 0)  # zero batch: no per-node sample
    predictor.observe_request(float("-inf"))
    predictor.observe_gap(float("nan"))
    assert not predictor.ready
    assert predictor.state() == LatencyPredictor().state()


def test_predictor_runs_identical_serial_vs_forked_sweep():
    """The lazy-kick config's outcomes (which flow through the predictor
    on every kick decision) are bit-identical between a serial sweep and
    a forked --jobs sweep."""
    if not common.parallel_sweep_supported():
        import pytest

        pytest.skip("fork start method unavailable")
    rates = (4400, 5000)

    def factory():
        return fig_slo._cluster_factory("lazy_kick")()

    def one(jobs):
        return common.sweep(
            factory,
            lambda: FixedLengthDataset(fig_slo.SEQUENCE_LENGTH),
            rates,
            lambda rate: 500,
            seed=fig_slo.SEED,
            jobs=jobs,
        )

    serial, forked = one(1), one(2)
    for s, f in zip(serial, forked):
        assert tuple(s.stats.latencies) == tuple(f.stats.latencies)
        assert s.extras == f.extras
        assert s.throughput == f.throughput
