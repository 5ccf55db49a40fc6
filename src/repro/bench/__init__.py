"""Engine performance benchmarks (``python -m repro.bench``).

Times the two hot paths this reproduction's scale story depends on — the
scheduler decision loop and the experiment sweep — and records the numbers
in ``BENCH_engine.json`` so successive PRs carry a perf trajectory.  See
:mod:`repro.bench.engine` for the harness and ``benchmarks/bench_engine.py``
for the repo-root entry point.
"""

from repro.bench.engine import (
    bench_fig7_quick,
    bench_scheduler,
    check_regression,
    main,
    run_engine_bench,
)

__all__ = [
    "bench_fig7_quick",
    "bench_scheduler",
    "check_regression",
    "main",
    "run_engine_bench",
]
