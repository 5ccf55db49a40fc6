"""The engine's latency estimates, against the predictor they replaced.

Two numbers answer "how long will this work take" (DESIGN.md §38): the
lazy kick's remaining service, ``remaining_nodes`` times the manager's
per-node EWMA, and a cluster replica's ``predicted_delay``, its
outstanding count times its own EWMA inter-finish gap (Little's law).
Both used to be read off a ``LatencyPredictor``, now
``tests/oracles/latency_predictor.py``.  Here:

* on every corpus row that reads either number, each read equals what the
  oracle predictor, fed as the engine used to feed it, answers — bit for
  bit — and the row still reproduces its committed fingerprint;
* ``Replica.predicted_delay`` is finite, non-negative and monotone in the
  outstanding count, a pure function of the finishes it has folded, and
  the manager's ``projected_queue_delay`` until the first one.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterServer
from repro.cluster.replica import Replica
from repro.core.request import RequestState
from repro.policies.slo import LazyKickPolicy
from repro.registry.specs import ClusterSpec
from tests import golden
from tests.oracles.latency_predictor import LatencyPredictor, PredictorFeed

# -- every read on the corpus rows that make any ------------------------------


def _reads_an_estimate(row) -> bool:
    """A cluster row behind the ``predicted_delay`` router or an SLA gate,
    or a server row whose lazy kick an SLA switches on."""
    spec = row.spec
    if isinstance(spec, ClusterSpec):
        return spec.router == "predicted_delay" or spec.sla is not None
    return spec.policies.get("formation") == "lazy_kick" and spec.sla is not None


ROWS = {name: row for name, row in golden.matrix().items() if _reads_an_estimate(row)}
STORED = golden.stored()


def _same(got: float, want: float) -> bool:
    return got.hex() == want.hex()


def _install_oracles(monkeypatch):
    """Feed one oracle predictor per active lazy kick (a ``PredictorFeed``
    on its engine, installed where the kick used to install one) and one
    per replica (its finished shadows' latencies and inter-finish gaps,
    where the cluster's fold used to feed them), and check every read of
    the engine's own estimates against them.  Returns the read counts."""
    reads = {"kick": 0, "replica": 0}
    replica_oracles = {}  # id(replica) -> [predictor, last finish]

    attach = LazyKickPolicy.attach

    def attach_with_oracle(policy, engine):
        attach(policy, engine)
        if not policy.active:
            return
        oracle = LatencyPredictor()
        engine.install(PredictorFeed(oracle))
        inner_form = policy.inner.form

        def form(queue, worker):
            plan = inner_form(queue, worker)
            node_time = engine.node_time_estimate
            for sg, _ in plan:
                remaining = sg.request.remaining_nodes
                want = oracle.predicted_service(remaining)
                assert _same(remaining * node_time, want), (
                    f"kick slack: {remaining} nodes x {node_time!r} "
                    f"!= oracle {want!r}"
                )
                reads["kick"] += 1
            return plan

        policy.inner.form = form

    fold = ClusterServer._fold

    def fold_with_oracle(cluster, replica, logical, shadow):
        if shadow.state is RequestState.FINISHED:
            entry = replica_oracles.setdefault(id(replica), [LatencyPredictor(), None])
            oracle, last = entry
            oracle.observe_request(shadow.finish_time - shadow.arrival_time)
            if last is not None:
                oracle.observe_gap(shadow.finish_time - last)
            entry[1] = shadow.finish_time
        fold(cluster, replica, logical, shadow)

    predicted_delay = Replica.predicted_delay

    def checked_predicted_delay(replica, now):
        got = predicted_delay(replica, now)
        entry = replica_oracles.get(id(replica))
        if entry is not None and entry[0].ready:
            want = entry[0].predicted_queue_delay(replica.outstanding())
        else:
            want = replica.manager.projected_queue_delay(now)
        assert _same(got, want), (
            f"replica {replica.replica_id}: predicted_delay {got!r} "
            f"!= oracle {want!r}"
        )
        reads["replica"] += 1
        return got

    monkeypatch.setattr(LazyKickPolicy, "attach", attach_with_oracle)
    monkeypatch.setattr(ClusterServer, "_fold", fold_with_oracle)
    monkeypatch.setattr(Replica, "predicted_delay", checked_predicted_delay)
    return reads


def _check_row(monkeypatch, name, seed):
    reads = _install_oracles(monkeypatch)
    assert golden.digest(ROWS[name], seed) == STORED[golden.key(name, seed)], (
        f"{name} @ seed {seed} no longer reproduces its committed fingerprint"
    )
    reader = "replica" if isinstance(ROWS[name].spec, ClusterSpec) else "kick"
    assert reads[reader] > 0, f"{name} read no {reader} estimate"


@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("name", [n for n, row in ROWS.items() if row.tier1])
def test_estimates_equal_the_oracle_predictor_on_tier1_rows(monkeypatch, name, seed):
    _check_row(monkeypatch, name, seed)


@pytest.mark.golden_full
@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("name", [n for n, row in ROWS.items() if not row.tier1])
def test_estimates_equal_the_oracle_predictor_on_full_rows(monkeypatch, name, seed):
    _check_row(monkeypatch, name, seed)


def test_the_rows_cover_both_readers():
    kinds = {isinstance(row.spec, ClusterSpec) for row in ROWS.values() if row.tier1}
    assert kinds == {True, False}


# -- Replica.predicted_delay's properties ---------------------------------------

# A replica's finishes: (seconds since the previous finish, latency), both
# engine-made and so finite and non-negative; zero gaps are finishes that
# share an instant.  ``owned=False`` is a shadow a replica loss took back;
# ``finished=False`` one that timed out or was rejected.
_finishes = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False)),
        st.floats(0.0, 10.0, allow_nan=False),
        st.booleans(),
        st.booleans(),
    ),
    max_size=60,
)

PROJECTED = 0.125


def _replica():
    manager = SimpleNamespace(projected_queue_delay=lambda now: PROJECTED)
    return Replica(0, SimpleNamespace(manager=manager), fold=lambda *args: None)


def _feed(replica, finishes):
    """Terminal shadows through the engine hook, in time order; returns the
    oracle predictor fed what the cluster's fold used to feed it."""
    oracle = LatencyPredictor()
    now, last = 1.0, None
    for request_id, (gap, latency, owned, finished) in enumerate(finishes):
        now += gap
        shadow = SimpleNamespace(
            request_id=request_id,
            arrival_time=now - latency,
            finish_time=now if finished else None,
        )
        if owned:
            replica.shadow_of[request_id] = object()
        replica.on_terminal(shadow)
        if owned and finished:
            oracle.observe_request(now - shadow.arrival_time)
            if last is not None:
                oracle.observe_gap(now - last)
            last = now
    return oracle


def _with_outstanding(replica, count):
    replica.shadow_of = {-1 - i: object() for i in range(count)}
    return replica.predicted_delay(0.0)


@settings(max_examples=120, deadline=None)
@given(finishes=_finishes, outstanding=st.integers(0, 10_000))
def test_predictions_finite_and_non_negative(finishes, outstanding):
    replica = _replica()
    oracle = _feed(replica, finishes)
    delay = _with_outstanding(replica, outstanding)
    assert math.isfinite(delay) and delay >= 0.0
    want = oracle.predicted_queue_delay(outstanding) if oracle.ready else PROJECTED
    assert _same(delay, want)


@settings(max_examples=120, deadline=None)
@given(
    finishes=_finishes,
    counts=st.lists(st.integers(0, 1000), min_size=2, max_size=6),
)
def test_queue_delay_monotone_in_depth(finishes, counts):
    """More outstanding shadows never predict an earlier completion."""
    replica = _replica()
    _feed(replica, finishes)
    delays = [_with_outstanding(replica, count) for count in sorted(counts)]
    assert all(a <= b for a, b in zip(delays, delays[1:]))


@settings(max_examples=60, deadline=None)
@given(finishes=_finishes)
def test_state_is_pure_function_of_observations(finishes):
    """Two replicas fed the same finishes agree bit for bit."""
    a, b = _replica(), _replica()
    _feed(a, finishes)
    _feed(b, finishes)
    assert (a.latency_ewma, a.gap_ewma, a._last_finish) == (
        b.latency_ewma,
        b.gap_ewma,
        b._last_finish,
    )


def test_predicted_delay_is_projected_delay_until_the_first_finish():
    replica = _replica()
    _feed(replica, [(0.5, 0.25, False, True), (0.5, 0.25, True, False)])
    assert _with_outstanding(replica, 7) == PROJECTED
    _feed(replica, [(0.5, 0.25, True, True)])
    assert _with_outstanding(replica, 7) == 7 * 0.25  # latency, no gap yet
