"""Open-loop load generator.

Drives any :class:`~repro.server.InferenceServer` with Poisson arrivals
drawn from a dataset, discards a warmup prefix, and summarises latency and
achieved throughput — the measurement loop behind every serving figure in
the paper's evaluation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.metrics.latency import LatencyStats
from repro.metrics.summary import RunSummary
from repro.server import InferenceServer
from repro.workload.arrivals import make_arrivals


class RunResult:
    """Everything one load point produced."""

    def __init__(
        self,
        summary: RunSummary,
        stats: LatencyStats,
        server: InferenceServer,
        duration: float,
    ):
        self.summary = summary
        self.stats = stats
        self.server = server
        self.duration = duration


class LoadGenerator:
    """Submit ``num_requests`` arrivals and measure the outcome.

    ``arrivals`` selects the registered arrival process (``poisson``, the
    paper's default, or ``bursty`` / ``diurnal``; ``arrival_params`` are
    forwarded to its constructor).  ``warmup_fraction`` of the
    earliest-arriving requests are excluded from the statistics (they see
    an empty system); throughput is measured over the finish-time span of
    the measured requests.
    """

    def __init__(
        self,
        rate: float,
        num_requests: int,
        seed: int = 0,
        warmup_fraction: float = 0.1,
        arrivals: str = "poisson",
        arrival_params: Optional[dict] = None,
    ):
        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.rate = rate
        self.num_requests = num_requests
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        self.arrivals = arrivals
        self.arrival_params = dict(arrival_params or {})
        # Fail fast on an unknown process or bad knobs.
        make_arrivals(arrivals, rate, seed=seed, **self.arrival_params)

    def plan(self, dataset: Any) -> List[Tuple[float, Any]]:
        """The exact ``(arrival_time, payload)`` sequence :meth:`run` would
        submit: arrivals from the seeded Poisson process, one dataset
        sample per arrival, in arrival order.

        This is the workload's *identity* — the live serving loadgen
        (:mod:`repro.serve.loadgen`) replays the same plan over real
        sockets, which is what makes sim-vs-live parity a like-for-like
        comparison (same seed -> same payload at the same offset in both
        worlds).
        """
        arrivals = make_arrivals(
            self.arrivals, self.rate, seed=self.seed, **self.arrival_params
        )
        times = arrivals.times(self.num_requests)
        return [(when, dataset.sample_one()) for when in times]

    def run(
        self,
        server: InferenceServer,
        dataset: Any,
        deadline: Optional[float] = None,
    ) -> RunResult:
        """Run the experiment to completion (or ``deadline`` virtual seconds)."""
        for when, payload in self.plan(dataset):
            server.submit(payload, arrival_time=when)
        server.drain(until=deadline)

        warmup_cutoff = int(self.num_requests * self.warmup_fraction)
        measured = [
            r
            for r in server.finished
            if r.request_id >= warmup_cutoff
        ]
        if not measured:
            raise RuntimeError(
                f"no requests finished after warmup on {server.name!r} "
                f"(rate={self.rate}, n={self.num_requests}) — the system is "
                "overloaded for this horizon"
            )
        stats = LatencyStats().extend(measured)
        first = min(r.arrival_time for r in measured)
        last = max(r.finish_time for r in measured)
        span = max(last - first, 1e-9)
        throughput = len(measured) / span
        extras = {}
        timed_out = server.timed_out
        rejected = server.rejected
        retries = sum(r.retries for r in server.terminal_requests())
        if timed_out or rejected or retries:
            # SLA outcomes (post-warmup), so fault sweeps can plot goodput
            # and shed/timeout rates next to the latency percentiles.
            extras["timed_out"] = float(
                sum(1 for r in timed_out if r.request_id >= warmup_cutoff)
            )
            extras["rejected"] = float(
                sum(1 for r in rejected if r.request_id >= warmup_cutoff)
            )
            extras["retries"] = float(retries)
        joules = getattr(server, "energy_joules", None)
        if joules is not None:
            total = joules()
            if total > 0:
                # Integrated fleet energy at drain, plus the per-request
                # figure energy sweeps plot against p99 (whole-run joules
                # over measured requests — idle power is a real cost of
                # serving the measured traffic).
                extras["energy_joules"] = total
                extras["joules_per_request"] = total / len(measured)
        summary = RunSummary(
            system=server.name,
            offered_rate=self.rate,
            throughput=throughput,
            stats=stats,
        )
        summary.extras.update(extras)
        return RunResult(summary, stats, server, duration=last)


def main(argv=None) -> int:
    """CLI: one traced load point (``python -m repro.workload.loadgen``).

    Builds a preset server, drives it at ``--rate``, prints the summary,
    and with ``--trace PATH`` writes the run's Chrome trace JSON to exactly
    that path (open it in Perfetto / ``chrome://tracing``).
    """
    import argparse

    # Lazy: the factories live above this module in the import graph.
    from repro.experiments import common
    from repro.workload.datasets import (
        Seq2SeqDataset,
        SequenceDataset,
        TreeDataset,
    )

    presets = {
        "lstm_batchmaker": (common.lstm_batchmaker, SequenceDataset),
        "lstm_mxnet": (lambda: common.lstm_padded("MXNet"), SequenceDataset),
        "lstm_tensorflow": (
            lambda: common.lstm_padded("TensorFlow"),
            SequenceDataset,
        ),
        "seq2seq_batchmaker": (common.seq2seq_batchmaker, Seq2SeqDataset),
        "tree_batchmaker": (common.tree_batchmaker, TreeDataset),
    }
    parser = argparse.ArgumentParser(
        description="Drive one server at one load point and optionally "
        "export its execution trace."
    )
    parser.add_argument(
        "--server", default="lstm_batchmaker", choices=sorted(presets)
    )
    parser.add_argument("--rate", type=float, default=5000.0, metavar="REQ_S")
    parser.add_argument("--num-requests", type=int, default=2000, metavar="N")
    parser.add_argument("--seed", type=int, default=0, help="arrival seed")
    parser.add_argument("--dataset-seed", type=int, default=1)
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the run's Chrome trace JSON to this exact path",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="K",
        help="with --trace, keep spans for every Kth request id (default 1)",
    )
    args = parser.parse_args(argv)
    if args.trace_sample < 1:
        parser.error(f"--trace-sample must be >= 1, got {args.trace_sample}")

    server_factory, dataset_cls = presets[args.server]
    server = server_factory()
    recorder = None
    if args.trace is not None:
        from repro.trace import TraceRecorder

        recorder = TraceRecorder(server.loop, sample_every=args.trace_sample)
        server.attach_trace(recorder)
    generator = LoadGenerator(
        rate=args.rate, num_requests=args.num_requests, seed=args.seed
    )
    result = generator.run(server, dataset_cls(seed=args.dataset_seed))
    s = result.summary
    print(
        f"{s.system}: offered {s.offered_rate:.0f} req/s, achieved "
        f"{s.throughput:.0f} req/s, p50 {s.p50_ms:.2f} ms, "
        f"p90 {s.p90_ms:.2f} ms, p99 {s.p99_ms:.2f} ms"
    )
    if recorder is not None:
        import os

        parent = os.path.dirname(args.trace)
        if parent:
            os.makedirs(parent, exist_ok=True)
        count = recorder.export_chrome(args.trace)
        print(f"[trace -> {args.trace} ({count} events)]")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
