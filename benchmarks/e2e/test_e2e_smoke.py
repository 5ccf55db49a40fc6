"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Outside the tier-1 ``testpaths``: it starts a dozen processes and a live
server.  It drives ``--smoke`` (a tenth of the size, once) and checks the
result against ``BENCHMARK.json`` — it never looks at a speed.
"""

import asyncio
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import live  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = run_benchmark("--smoke", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as fh:
        return json.load(fh), str(out)


# -- the span stack ---------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_wrapped_children():
    # outer opens at 0, inner runs 10..40, outer closes at 100.
    ledger = spans.Ledger(layers=("outer", "inner"), clock=FakeClock([0, 10, 40, 100]))
    inner = ledger.wrap("inner", lambda: "value")
    outer = ledger.wrap("outer", lambda: inner())
    assert outer() == "value"
    assert ledger.self_ns == {"outer": 70, "inner": 30}
    assert ledger.calls == {"outer": 1, "inner": 1}


def test_nested_spans_of_one_layer_add_up_to_the_outer_duration():
    ledger = spans.Ledger(layers=("layer",), clock=FakeClock([0, 5, 25, 30]))
    leaf = ledger.wrap("layer", lambda: None)
    ledger.wrap("layer", leaf)()
    assert ledger.self_ns == {"layer": 30}
    assert ledger.calls == {"layer": 2}


def test_an_exception_closes_its_span_and_passes_through():
    ledger = spans.Ledger(layers=("outer", "inner"), clock=FakeClock([0, 1, 4, 9]))

    def fail():
        raise KeyError("boom")

    outer = ledger.wrap("outer", ledger.wrap("inner", fail))
    with pytest.raises(KeyError):
        outer()
    assert ledger.self_ns == {"outer": 6, "inner": 3}
    assert ledger._stack == []


def test_wrapping_twice_or_a_missing_attribute_is_harmless():
    class Owner:
        def method(self):
            return 1

    ledger = spans.Ledger(layers=("layer",))
    ledger.wrap_attr("layer", Owner, "method")
    once = Owner.method
    ledger.wrap_attr("layer", Owner, "method")
    ledger.wrap_attr("layer", Owner, "gone")
    assert Owner.method is once and Owner().method() == 1
    assert ledger.calls["layer"] == 1
    assert ledger.missing == ["Owner.gone"]


# -- reference seconds ----------------------------------------------------------


def test_reference_seconds_rescale_by_the_speed_sampled_inside_the_region():
    slow, fast = 2 * speed.NOMINAL_PROBE_S, speed.NOMINAL_PROBE_S
    # (monotonic time, the probe's seconds, the whole handler's seconds)
    samples = [(0.5, fast, 0.1), (1.5, slow, 0.2), (2.5, slow, 0.2), (9.0, fast, 0.1)]
    seconds, machine = speed.reference_seconds(10.4, samples, 1.0, 3.0)
    assert machine == pytest.approx(0.5)
    assert seconds == pytest.approx((10.4 - 0.4) * 0.5)
    # Half the time at each speed: the mean speed, not the mean duration.
    _, machine = speed.reference_seconds(1.0, samples, 0.0, 2.0)
    assert machine == pytest.approx(0.75)
    # No sample inside: the nearest one's speed, nothing to subtract.
    assert speed.reference_seconds(1.0, samples, 3.0, 4.0) == (pytest.approx(0.5), pytest.approx(0.5))


def test_the_sampler_probes_on_the_process_own_cpu_time():
    sampler = speed.Sampler()
    sampler.start()
    try:
        until = time.thread_time() + 6 * speed.PERIOD_S
        while time.thread_time() < until:
            pass
    finally:
        sampler.stop()
    assert 2 <= len(sampler.samples) <= 8
    assert all(0 < probe_s < tick_s for _, probe_s, tick_s in sampler.samples)
    ats = [at for at, _, _ in sampler.samples]
    assert ats == sorted(ats)


# -- BENCHMARK.json -----------------------------------------------------------


def test_declaration_keeps_the_contract(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declaration["paths"] == ["benchmarks/e2e"]
    assert 1 <= declaration["run_seconds"] <= 60
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in declaration[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declaration["end_to_end"])


def test_every_layer_declares_its_share_and_calls(declaration):
    declared = {m["name"] for m in declaration["per_layer"]}
    for layer in spans.LAYERS:
        assert {f"{layer}.share", f"{layer}.calls"} <= declared


# -- the smoke run --------------------------------------------------------------


def test_smoke_result_has_every_declared_workload_and_metric(declaration, smoke_result):
    result, _ = smoke_result
    assert result["seed"] == 7 and result["smoke"] is True
    assert {"nproc", "python", "commit"} <= set(result["environment"])
    for workload in declaration["workloads"]:
        measured = result["workloads"][workload["name"]]
        assert measured["problems"] == []
        assert measured["failed"] == 0 and measured["attempted"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", measured["exact"]["fingerprint"])
        for metric in declaration["end_to_end"]:
            value = measured["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"] and value["bound"] == metric["bound"]
            assert value["median"] > 0 and value["n"] >= 1
        for metric in declaration["per_layer"]:
            assert metric["name"] in measured["layers"]
        assert all(NAME.match(name) for name in measured["layers"])
        assert all(NAME.match(name) for name in measured["end_to_end"])


def test_layers_a_workload_bypasses_report_no_calls(smoke_result):
    result, _ = smoke_result
    layers = {name: w["layers"] for name, w in result["workloads"].items()}
    for bare in ("lstm_chain", "tree_lstm"):
        assert layers[bare]["cluster.route.calls"] == 0
        assert layers[bare]["serve.http.calls"] == 0
        assert layers[bare]["models.unfold.calls"] > 0
    assert layers["cluster_short"]["cluster.route.calls"] > 0
    assert layers["cluster_short"]["serve.http.calls"] == 0
    assert layers["live_http"]["serve.http.calls"] > 0
    assert layers["live_http"]["cluster.route.calls"] == 0
    assert layers["tree_lstm"]["scheduler.add.calls"] > 4 * layers["tree_lstm"]["models.unfold.calls"]


def test_a_result_compared_with_itself_is_ok(smoke_result, capsys):
    _, path = smoke_result
    assert compare.main([path, path]) == 0
    assert "unresolved" not in capsys.readouterr().out


def test_compare_tells_worse_from_unresolved():
    def metric(values, better="higher", bound=0.10):
        return dict(run.summarise(values), bound=bound, better=better)

    base = metric([99.0, 100.0, 101.0, 100.0, 100.0])
    assert base["median"] == 100.0 and base["n"] == 5
    assert compare.judge(base, metric([94.0, 95.0, 96.0, 95.0, 95.0]))["status"] == "ok"
    assert compare.judge(base, metric([79.0, 80.0, 81.0, 80.0, 80.0]))["status"] == "worse"
    assert compare.judge(base, metric([120.0, 121.0, 119.0, 120.0, 120.0]))["status"] == "ok"
    # Either side's quartiles wider apart than the bound: the runs cannot tell.
    noisy = metric([100.0, 120.0, 80.0, 60.0, 140.0])
    assert compare.judge(base, noisy)["status"] == "unresolved"
    assert compare.judge(noisy, base)["status"] == "unresolved"
    slower = metric([1.0, 1.01, 0.99, 1.0, 1.0], better="lower")
    assert compare.judge(slower, metric([1.2, 1.21, 1.19, 1.2, 1.2], "lower"))["status"] == "worse"
    # A bound of 0 is absolute.
    none_failed = metric([0.0] * 5, better="lower", bound=0.0)
    assert compare.judge(none_failed, none_failed)["status"] == "ok"
    some_failed = metric([0.0, 0.0, 0.01, 0.01, 0.01], better="lower", bound=0.0)
    assert compare.judge(none_failed, some_failed)["status"] == "worse"


def test_an_empty_sample_has_no_percentile():
    assert math.isnan(live.percentile([], 50))
    assert live.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_giving_up_on_the_server_is_a_problem(monkeypatch):
    class Stuck:
        async def request(self, method, path, obj=None):
            return 200, {"terminal": 3}

    monkeypatch.setattr(live, "CATCH_UP_TIMEOUT_S", 0.0)
    problems = []
    metrics = asyncio.run(live.wait_terminal(Stuck(), 5, problems))
    assert metrics["terminal"] == 3
    assert problems == ["only 3 of 5 requests terminal after 0 s"]


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_ends_with_the_declared_metrics_on_one_line(declaration, trace, key):
    done = run_benchmark(
        "--workload", "cluster_short", "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declaration[key]]
    for metric in declaration[key]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(line["metrics"][metric["name"]]["value"], (int, float))


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command fails, and prints no result line."""
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    (tmp_path / "BENCHMARK.json").write_text(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lstm_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
