#!/usr/bin/env python
"""Engine benchmark entry point (repo root aware).

Times scheduler decisions/sec (fast path vs the retained brute-force
reference) at fixed queue depths, the policy / SLO / memory / energy /
trace / serve micro sections, and the quick Fig-7 sweep wall-clock (serial
vs ``--jobs``), then writes ``BENCH_engine.json`` at the repo root.
Cluster routing is measured in context by ``benchmarks/e2e``
(``cluster_short``), not here.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --check BENCH_engine.json                               # CI gate
    PYTHONPATH=src python benchmarks/bench_engine.py --only slo # one section
    PYTHONPATH=src python benchmarks/bench_engine.py --profile  # cProfile

Equivalent to ``python -m repro.bench`` except the default output path is
the repo root rather than the current directory.
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.engine import main  # noqa: E402


if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--out" not in argv:
        argv = ["--out", os.path.join(REPO_ROOT, "BENCH_engine.json")] + argv
    sys.exit(main(argv))
