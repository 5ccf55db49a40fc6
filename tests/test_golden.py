"""The committed fingerprint corpus reproduces (``tests/golden``).

Tier-1 runs the slice marked ``tier1`` in the matrix; ``-m golden_full``
(the CI ``chaos`` job) runs the rest.  A failure here means observable
behaviour moved: a refactor must not, a behaviour change regenerates the
file with ``python -m tests.golden --write`` and names the rows.
"""

import pytest

from tests import golden

ROWS = golden.matrix()
STORED = golden.stored()
TIER1 = [name for name, row in ROWS.items() if row.tier1]
FULL = [name for name, row in ROWS.items() if not row.tier1]


def _check(name, seed):
    assert golden.digest(ROWS[name], seed) == STORED[golden.key(name, seed)], (
        f"{name} @ seed {seed} no longer reproduces its committed fingerprint"
    )


@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("name", TIER1)
def test_tier1_slice_reproduces(name, seed):
    _check(name, seed)


@pytest.mark.golden_full
@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("name", FULL)
def test_full_matrix_reproduces(name, seed):
    _check(name, seed)


def test_file_holds_exactly_the_matrix():
    expected = {golden.key(n, s) for n in ROWS for s in golden.SEEDS}
    assert set(STORED) == expected


def test_traced_rows_hash_equal_to_their_untraced_twins():
    twins = [name for name in ROWS if name.endswith("+trace")]
    assert twins
    for name in twins:
        assert ROWS[name].traced and not ROWS[name[: -len("+trace")]].traced
        for seed in golden.SEEDS:
            assert (
                STORED[golden.key(name, seed)]
                == STORED[golden.key(name[: -len("+trace")], seed)]
            )


def test_rows_exercise_what_their_names_promise():
    """The slice is only a net if the paths it names really run: spot
    checks on the counters behind the stored hashes."""
    seed = golden.SEEDS[0]
    storm = golden.run(ROWS["storm/shedding"], seed)
    counters = storm.fault_counters()
    assert counters.requests_rejected and counters.retries_attempted
    assert counters.device_failures == 1
    lost = golden.run(ROWS["storm/total_loss"], seed)
    assert {r.cancel_reason for r in lost.rejected} == {"no_devices"}
    aware = golden.run(ROWS["memory/aware"], seed)
    assert aware.fault_counters().memory_evictions
    shed = golden.run(ROWS["memory/shed"], seed)
    assert any(r.cancel_reason == "memory_shed" for r in shed.rejected)
    lazy = golden.run(ROWS["lazy_kick/sla"], seed)
    assert lazy.policies.formation.holds
    dvfs = golden.run(ROWS["energy/race_to_idle"], seed)
    assert dvfs.manager.workers[0].device.energy.frequency_changes
    front = golden.run(ROWS["cluster/sla+autoscaler+loss"], seed)
    c = front.cluster_counters
    assert c.sla_rejections and c.replicas_spawned and c.replicas_lost == 1
    mem = golden.run(ROWS["cluster/memory_admission+loss"], seed)
    assert mem.cluster_counters.memory_rejections
