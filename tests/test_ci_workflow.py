"""The CI workflow names only things that exist.

Nobody can run GitHub Actions from a checkout, so a renamed test file or a
deleted module would first be noticed on the next push.  This parses
``.github/workflows/ci.yml`` and holds every ``tests/...py`` /
``benchmarks/...`` path and every ``python -m repro.<module>`` in it to the
tree, the job list to the six jobs DESIGN.md §21 describes, and the
``chaos`` job's seed matrix to every suite that draws its seeds from
``chaos_seeds()``.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parent.parent
JOBS = ["lint", "tests", "e2e", "chaos", "figures", "serve-timing"]


def _workflow():
    return yaml.safe_load((REPO / ".github" / "workflows" / "ci.yml").read_text())


def _strings(node):
    """Every string value in the parsed workflow — step commands and the
    matrix entries they are assembled from alike."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


def test_job_list_is_exactly_the_six():
    assert list(_workflow()["jobs"]) == JOBS


def test_the_tier1_job_prints_its_slowest_tests():
    """Tier-1 has a time budget (ROADMAP.md); its log names the tests that
    spend it."""
    runs = [step.get("run", "") for step in _workflow()["jobs"]["tests"]["steps"]]
    (command,) = [run for run in runs if "python -m pytest" in run]
    assert "--durations=15" in command.split()


def test_every_job_has_steps_that_run_something():
    for name, job in _workflow()["jobs"].items():
        steps = job["steps"]
        assert any("run" in step for step in steps), f"job {name} runs nothing"
        for step in steps:
            assert "run" in step or "uses" in step, f"job {name}: empty step {step}"


def test_every_named_path_and_module_exists():
    text = "\n".join(_strings(_workflow()["jobs"]))
    paths = set(re.findall(r"\b((?:tests|benchmarks)/[\w./-]*\w)", text))
    modules = set(re.findall(r"python -m (repro(?:\.\w+)+)", text))
    assert len(paths) >= 12 and len(modules) >= 3, "the scan found too little"
    missing = sorted(p for p in paths if not (REPO / p).exists())
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
    unknown = sorted(m for m in modules if importlib.util.find_spec(m) is None)
    assert not unknown, f"ci.yml runs modules that do not exist: {unknown}"


def test_every_chaos_seeded_suite_runs_in_the_seed_matrix():
    """A suite that calls ``chaos_seeds()`` but is missing from the chaos
    job only ever runs tier-1's seed set."""
    steps = _workflow()["jobs"]["chaos"]["steps"]
    (suite,) = [step["run"] for step in steps if step.get("name") == "Fault-injection suite"]
    named = set(re.findall(r"tests/test_\w+\.py", suite))
    seeded = {
        f"tests/{path.name}"
        for path in (REPO / "tests").glob("test_*.py")
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "chaos_seeds"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    }
    assert len(seeded) >= 18, "the scan found too little"
    missing = sorted(seeded - named)
    assert not missing, f"chaos-seeded suites missing from the chaos job: {missing}"


def test_quick_figures_named_by_the_matrix_are_registered():
    from repro.experiments.runner import EXPERIMENTS

    text = "\n".join(_strings(_workflow()["jobs"]["figures"]))
    figures = re.findall(r"repro\.experiments\.runner (\w+)", text)
    assert sorted(figures) == [
        "fig_cluster", "fig_energy", "fig_memory", "fig_slo", "fig_trace",
    ]
    assert set(figures) <= set(EXPERIMENTS)
