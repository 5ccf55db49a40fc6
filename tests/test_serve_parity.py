"""Sim-vs-live parity gate (the tentpole's acceptance test).

Same seeded plan, two worlds: the virtual-clock simulator and a real
localhost server on the wall clock.  Every request must reach the same
terminal outcome in both (tier-1), and live p50/p99 must land inside the
calibrated tolerance bands (``latency_band``-marked, not part of the default
invocation; set ``REPRO_SERVE_RELAXED=1`` to widen the bands on noisy shared
runners — CI does)."""

import os
import subprocess
import sys

import pytest

from repro.serve.parity import compare, run_live, run_parity, run_sim

pytestmark = pytest.mark.timing

RELAXED = os.environ.get("REPRO_SERVE_RELAXED", "") not in ("", "0")


def test_simulated_runs_never_import_repro_serve():
    """Simulated mode must stay bit-identical with repro.serve absent —
    so a plain sim run must not even import it (the fingerprint suites
    guard the bit-identity half)."""
    code = (
        "import sys\n"
        "from repro.experiments import common\n"
        "from repro.workload.loadgen import LoadGenerator\n"
        "from repro.workload.datasets import SequenceDataset\n"
        "server = common.lstm_batchmaker()\n"
        "LoadGenerator(rate=2000.0, num_requests=50).run(\n"
        "    server, SequenceDataset(seed=1))\n"
        "bad = [m for m in sys.modules\n"
        "       if m == 'repro.serve' or m.startswith('repro.serve.')]\n"
        "assert not bad, bad\n"
    )
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, cwd=root
    )


def test_sim_world_is_deterministic():
    first = run_sim(rate=500.0, num_requests=100)
    second = run_sim(rate=500.0, num_requests=100)
    assert first.outcomes == second.outcomes
    assert first.latencies == second.latencies
    assert len(first.outcomes) == 100


@pytest.fixture(scope="module")
def parity_result():
    """The gate's run: 200 requests, one seed, both worlds (~5 s live)."""
    return run_parity(rate=200.0, num_requests=200, seed=3, relaxed=RELAXED)


def test_parity_same_seed_same_outcomes(parity_result):
    """Every request reaches the same terminal state in both worlds.  What
    a request's outcome is does not depend on how fast the host runs, so
    this half of the gate is deterministic and stays in tier-1."""
    result = parity_result
    assert result.sim.outcomes == {
        index: state
        for index, state in result.live.outcomes.items()
    }, result.describe()
    unrelated_to_speed = [m for m in result.mismatches if "exceeds band" not in m]
    assert not unrelated_to_speed, result.describe()


@pytest.mark.latency_band
def test_parity_latency_inside_bands(parity_result):
    """Live p50/p99 land inside the tolerance bands around the simulated
    ones.  The host's speed decides this (the sandbox's vCPUs flip between
    two speeds 1.9x apart and failed it in 2 of 4 tier-1 runs), so the
    default invocation deselects it (``addopts`` in pyproject.toml); the CI
    ``serve`` job runs it with ``-m timing`` and ``REPRO_SERVE_RELAXED=1``."""
    assert parity_result.ok, parity_result.describe()


def test_parity_detects_outcome_divergence():
    """The comparator itself must flag a world that disagrees — guard
    against a vacuously green gate."""
    sim = run_sim(rate=500.0, num_requests=50)
    live = run_live(rate=500.0, num_requests=50)
    broken = dict(live.outcomes)
    broken[0] = "FAILED" if broken[0] != "FAILED" else "SUCCEEDED"
    live.outcomes = broken
    result = compare(sim, live)
    assert not result.ok
    assert any("index 0" in m for m in result.mismatches)


def test_parity_detects_latency_band_violation():
    sim = run_sim(rate=500.0, num_requests=50)
    live = run_live(rate=500.0, num_requests=50)
    live.latencies = {i: value + 10.0 for i, value in live.latencies.items()}
    result = compare(sim, live)
    assert not result.ok
    assert any("exceeds band" in m for m in result.mismatches)
