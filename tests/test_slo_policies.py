"""Differential SLO conformance suite for the lazy-kick formation.

Three guarantees, checked differentially against the paper baseline:

1. **SLA-off bit-identity** — a server running the ``lazy_kick``
   formation with *no* SLA configured is outcome-fingerprint-identical
   to the paper formation, for every queue-priority policy and both
   formation paths.  The lazy kick must be perfectly inert until an
   :class:`~repro.faults.SLAConfig` switches it on.
2. **No late dispatch** — when the policy holds a batch because its
   slack accounting said every member had headroom, no held request that
   eventually finished did so past its deadline: a hold may shift work,
   never break a promise the slack estimate said was keepable.
3. **Attainment dominance** — on the seeded fixed-length workload of
   ``repro.experiments.fig_slo``, lazy-kick SLO attainment is at least
   the paper's at 70-93% utilisation, and measurably higher near
   saturation, where denser batches amortise the per-task overhead.
"""

import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.experiments import common, fig_slo
from repro.faults import SLAConfig
from repro.models import LSTMChainModel
from repro.policies import LazyKickPolicy, bundle_from_names
from repro.workload import FixedLengthDataset

from .chaos_helpers import assert_invariants, outcome_fingerprint, run_chaos
from .oracles.bruteforce_scheduler import install_reference_scans


def _server(formation, priority=None, indexed=True, sla=None, max_batch=32):
    """``indexed=False`` schedules by the brute-force scans of
    ``tests/oracles/bruteforce_scheduler.py``."""
    config = BatchingConfig.with_max_batch(max_batch)
    server = BatchMakerServer(
        LSTMChainModel(),
        config=config,
        num_gpus=1,
        sla=sla,
        policies=bundle_from_names(priority=priority, formation=formation
        ),
    )
    return server if indexed else install_reference_scans(server)


# -- 1. SLA-off bit-identity ----------------------------------------------


@pytest.mark.parametrize(
    "priority, indexed",
    [
        ("paper", True),
        ("paper", False),
        ("flat", True),
        ("longest_queue", True),
    ],
)
def test_lazy_kick_inert_without_sla(priority, indexed):
    """paper vs lazy_kick formation, same bundle otherwise, no SLA:
    identical terminal outcomes, timestamps, counters and batch sizes."""
    fingerprints = []
    for formation in ("paper", "lazy_kick"):
        server = _server(formation, priority=priority, indexed=indexed)
        submitted = run_chaos(server, rate=4000.0, num_requests=400)
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server))
    assert fingerprints[0] == fingerprints[1], (
        f"lazy_kick not inert without SLA (priority={priority}, "
        f"indexed={indexed})"
    )
    # And the policy itself must have stayed dormant: no holds, no wakes.
    policy = server.manager.policies.formation
    assert isinstance(policy, LazyKickPolicy)
    assert not policy.active
    assert policy.holds == 0 == policy.wakes


def test_lazy_kick_inert_with_deadlines_but_no_sla():
    """Per-request deadlines alone (timeout eviction, PR-5 machinery) do
    not activate the lazy kick — activation requires the SLAConfig."""
    fingerprints = []
    for formation in ("paper", "lazy_kick"):
        server = _server(formation)
        submitted = run_chaos(
            server, rate=4000.0, num_requests=400, deadline=20e-3
        )
        assert_invariants(server, submitted)
        fingerprints.append(outcome_fingerprint(server))
    assert fingerprints[0] == fingerprints[1]


# -- 2. no late dispatch ---------------------------------------------------


def test_held_requests_never_finish_late():
    """Every request the policy held with claimed headroom either met its
    deadline or was deadline-evicted — a hold never produced a
    past-deadline completion."""
    sla = SLAConfig(default_deadline=20e-3, max_hold=1e-3)
    server = _server("lazy_kick", sla=sla)
    submitted = run_chaos(server, rate=5000.0, num_requests=600)
    assert_invariants(server, submitted)
    policy = server.manager.policies.formation
    assert policy.active
    assert policy.holds > 0, "workload never exercised the hold path"
    assert policy.kicks > 0
    held = policy.held_requests
    assert held, "no held request carried a deadline"
    finished = {r.request_id: r for r in server.finished}
    late = [
        rid
        for rid, deadline in held.items()
        if rid in finished and finished[rid].finish_time > deadline
    ]
    assert not late, f"held requests finished past their deadline: {late}"
    # Holds resolve through the wake timer or a later natural kick; if a
    # wake fired, the loop must have drained it (no leaked timers).
    assert server.loop.pending() == 0


def test_full_batches_kick_immediately():
    """At saturating load the policy must keep forcing full-batch kicks —
    a full batch gains nothing by waiting."""
    sla = SLAConfig(default_deadline=20e-3, max_hold=1e-3)
    server = _server("lazy_kick", sla=sla, max_batch=8)
    submitted = run_chaos(server, rate=6000.0, num_requests=400)
    assert_invariants(server, submitted)
    policy = server.manager.policies.formation
    assert policy.forced_full > 0


def test_slack_term_binds_and_sets_every_kick_instant():
    """A configuration where the slack, not ``arrival + max_hold``, decides:
    a 50 ms hold bound against an 8 ms deadline.  Every decision on a
    partial batch is recomputed here from the members it saw — ``deadline -
    remaining_nodes * node_time_estimate - KICK_MARGIN``, clipped to
    ``arrival + max_hold`` — and must equal the wake the policy armed (a
    hold) or lie at or before ``now`` (a kick).  Most holds are set by the
    slack of a member with service still to run, so a remaining-service
    term scaled by any factor misses this equality."""
    from repro.policies.slo import KICK_MARGIN

    sla = SLAConfig(default_deadline=8e-3, max_hold=50e-3)
    server = _server("lazy_kick", sla=sla)
    manager = server.manager
    policy = manager.policies.formation
    decisions = []
    inner_form, schedule_wake = policy.inner.form, policy._schedule_wake

    def form(queue, worker):
        plan = inner_form(queue, worker)
        if plan and sum(count for _, count in plan) < queue.max_batch:
            members = [
                (sg.request.arrival_time, sg.request.deadline, sg.request.remaining_nodes)
                for sg, _ in plan
            ]
            decisions.append([manager.loop.now(), manager.node_time_estimate, members])
        return plan

    def wake(when):
        decisions[-1].append(when)
        schedule_wake(when)

    policy.inner.form, policy._schedule_wake = form, wake
    submitted = run_chaos(server, rate=3000.0, num_requests=400)
    assert_invariants(server, submitted)

    held = slack_bound = 0
    for now, node_time, members, *wake_at in decisions:
        limits = []
        for arrival, deadline, remaining_nodes in members:
            hold_limit = arrival + policy.max_hold
            slack_limit = deadline - remaining_nodes * node_time - KICK_MARGIN
            limits.append((min(hold_limit, slack_limit), slack_limit < hold_limit, remaining_nodes * node_time))
        kick_by, by_slack, service = min(limits)
        if wake_at:
            held += 1
            assert wake_at == [kick_by] and kick_by > now
            slack_bound += by_slack and service > 0
        else:
            assert kick_by <= now
    assert held == policy.holds > 20
    assert slack_bound > held // 2, (slack_bound, held)


# -- 3. attainment dominance ----------------------------------------------


def _attainment(config: str, rate: float) -> float:
    server = fig_slo._cluster_factory(config)()
    summary = common.run_point(
        server,
        lambda: FixedLengthDataset(fig_slo.SEQUENCE_LENGTH),
        rate,
        1500,
        seed=fig_slo.SEED,
    )
    return fig_slo.attainment(summary)


def test_lazy_kick_attainment_dominates_paper():
    """On fig_slo's overhead-dominated setting, lazy-kick attainment is
    never below the paper's at 81-93% utilisation and is measurably
    higher at 93% (the win the experiment reproduces)."""
    gains = {}
    for rate in (4400, 4700, 5000):
        paper = _attainment("paper", rate)
        lazy = _attainment("lazy_kick", rate)
        assert lazy >= paper - 1e-9, (
            f"lazy attainment {lazy:.3f} below paper {paper:.3f} at {rate}"
        )
        gains[rate] = lazy - paper
    assert gains[5000] >= 0.01, (
        f"expected a measurable lazy win near saturation, got {gains}"
    )


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
