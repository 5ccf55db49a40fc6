"""Socket-driven load generator for the live front end.

Replays *exactly* the workload the simulator's
:class:`~repro.workload.LoadGenerator` would submit — same seeded Poisson
arrival offsets, same seeded dataset samples, via
``LoadGenerator.plan()`` — but over real TCP connections against a
running :mod:`repro.serve` server, pacing each submit to its arrival
offset on the wall clock.  That shared plan is what makes the sim-vs-live
parity harness (:mod:`repro.serve.parity`) a like-for-like comparison.

Each request carries its plan index as ``tag``; after the submit phase
the generator polls until every request is terminal and reports, per
index, the store's outcome and the *server-reported* latency (terminal
minus submit on the server's clock — the same measurement the simulator
makes, so client-side network time does not pollute parity).

``python -m repro.serve.loadgen --rate 500 --num-requests 1000`` drives a
server started with ``python -m repro.serve``; the process exits 0 only
when every submitted request reached exactly one terminal state and the
server's live counters agree with the loadgen's totals.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.workload.datasets import (
    FixedLengthDataset,
    Seq2SeqDataset,
    SequenceDataset,
)
from repro.workload.loadgen import LoadGenerator

# Datasets whose payloads are JSON-serialisable (ship over the wire as-is).
DATASETS = {
    "lstm": lambda seed: SequenceDataset(seed=seed),
    "fixed": lambda seed: FixedLengthDataset(24),
    "seq2seq": lambda seed: Seq2SeqDataset(seed=seed),
    "seq2seq_dynamic": lambda seed: Seq2SeqDataset(seed=seed, dynamic=True),
}


class HttpConn:
    """One persistent HTTP/1.1 connection speaking the front end's JSON."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConn":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self, method: str, path: str, obj: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        body = b"" if obj is None else json.dumps(obj).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro-serve\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = (
            json.loads(await self.reader.readexactly(length)) if length else {}
        )
        return status, payload

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except Exception:
            pass


def percentile_ms(latencies: Dict[int, float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-th percentile of per-index latencies (seconds),
    in ms; None when there are none.  The parity bands were calibrated on
    this rank rule."""
    values = sorted(latencies.values())
    if not values:
        return None
    index = min(len(values) - 1, max(0, round(p / 100.0 * (len(values) - 1))))
    return 1e3 * values[index]


class LoadgenReport:
    """Everything one live run produced, keyed by plan index."""

    def __init__(self, num_requests: int):
        self.num_requests = num_requests
        self.rid_of: Dict[int, int] = {}          # plan index -> store rid
        self.records: Dict[int, Dict[str, Any]] = {}  # plan index -> final record
        self.submit_errors: List[str] = []
        self.wall_seconds = 0.0

    @property
    def outcomes(self) -> Dict[int, str]:
        return {i: r["state"] for i, r in self.records.items()}

    @property
    def latencies(self) -> Dict[int, float]:
        """Server-reported latency per SUCCEEDED index (seconds)."""
        return {
            i: r["latency"]
            for i, r in self.records.items()
            if r.get("latency") is not None
        }

    def state_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records.values():
            counts[record["state"]] = counts.get(record["state"], 0) + 1
        return counts

    @property
    def lost(self) -> int:
        """Submitted but never reached a terminal record — must be 0."""
        return len(self.rid_of) - len(self.records)


async def run_loadgen(
    host: str,
    port: int,
    rate: float,
    num_requests: int,
    seed: int = 0,
    dataset: str = "lstm",
    dataset_seed: int = 1,
    concurrency: int = 16,
    time_scale: float = 1.0,
    deadline: Optional[float] = None,
    poll_interval: float = 0.02,
    drain_timeout: float = 60.0,
) -> LoadgenReport:
    """Submit the seeded plan over sockets, wait for every terminal."""
    if dataset not in DATASETS:
        raise ValueError(f"unknown dataset {dataset!r} (have: {sorted(DATASETS)})")
    plan = LoadGenerator(rate=rate, num_requests=num_requests, seed=seed).plan(
        DATASETS[dataset](dataset_seed)
    )
    report = LoadgenReport(num_requests)
    pool: asyncio.Queue = asyncio.Queue()
    conns = [await HttpConn.open(host, port) for _ in range(concurrency)]
    for conn in conns:
        pool.put_nowait(conn)

    aio = asyncio.get_running_loop()
    t0 = aio.time()

    async def submit_one(index: int, when: float, payload: Any) -> None:
        delay = t0 + when * time_scale - aio.time()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = await pool.get()
        try:
            obj: Dict[str, Any] = {"payload": payload, "tag": str(index)}
            if deadline is not None:
                obj["deadline"] = deadline
            status, record = await conn.request("POST", "/v1/requests", obj)
            if status == 201:
                report.rid_of[index] = record["rid"]
                if record["state"] in ("SUCCEEDED", "FAILED", "ABORTED"):
                    report.records[index] = record
            else:
                report.submit_errors.append(
                    f"index {index}: HTTP {status} {record}"
                )
        finally:
            pool.put_nowait(conn)

    await asyncio.gather(
        *(
            submit_one(index, when, payload)
            for index, (when, payload) in enumerate(plan)
        )
    )

    # Poll the stragglers until every submitted request is terminal.
    waiting = {
        index: rid
        for index, rid in report.rid_of.items()
        if index not in report.records
    }
    drain_deadline = aio.time() + drain_timeout
    while waiting and aio.time() < drain_deadline:
        done: List[int] = []

        async def poll_one(index: int, rid: int) -> None:
            conn = await pool.get()
            try:
                status, record = await conn.request("GET", f"/v1/requests/{rid}")
                if status == 200 and record["state"] in (
                    "SUCCEEDED",
                    "FAILED",
                    "ABORTED",
                ):
                    report.records[index] = record
                    done.append(index)
            finally:
                pool.put_nowait(conn)

        await asyncio.gather(
            *(poll_one(index, rid) for index, rid in waiting.items())
        )
        for index in done:
            waiting.pop(index, None)
        if waiting:
            await asyncio.sleep(poll_interval)

    report.wall_seconds = aio.time() - t0
    for conn in conns:
        await conn.close()
    return report


async def fetch_metrics(host: str, port: int) -> Dict[str, Any]:
    conn = await HttpConn.open(host, port)
    try:
        status, payload = await conn.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned HTTP {status}")
        return payload
    finally:
        await conn.close()


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Replay a seeded simulator workload against a live "
        "repro.serve server and verify every request terminates."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123)
    parser.add_argument("--rate", type=float, default=500.0, metavar="REQ_S")
    parser.add_argument("--num-requests", type=int, default=1000, metavar="N")
    parser.add_argument("--seed", type=int, default=0, help="arrival seed")
    parser.add_argument("--dataset", default="lstm", choices=sorted(DATASETS))
    parser.add_argument("--dataset-seed", type=int, default=1)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument(
        "--deadline", type=float, default=None, help="per-request SLA seconds"
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="stretch (>1) or compress (<1) the arrival schedule",
    )
    parser.add_argument("--drain-timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    async def run() -> Tuple[LoadgenReport, Dict[str, Any]]:
        report = await run_loadgen(
            args.host,
            args.port,
            rate=args.rate,
            num_requests=args.num_requests,
            seed=args.seed,
            dataset=args.dataset,
            dataset_seed=args.dataset_seed,
            concurrency=args.concurrency,
            time_scale=args.time_scale,
            deadline=args.deadline,
            drain_timeout=args.drain_timeout,
        )
        metrics = await fetch_metrics(args.host, args.port)
        return report, metrics

    report, metrics = asyncio.run(run())
    counts = report.state_counts()
    p50, p99 = percentile_ms(report.latencies, 50), percentile_ms(report.latencies, 99)
    print(
        f"loadgen: {args.num_requests} requests @ {args.rate:.0f} req/s over "
        f"{report.wall_seconds:.1f}s wall -> {counts}"
    )
    if p50 is not None:
        print(f"server-reported latency: p50 {p50:.2f} ms, p99 {p99:.2f} ms")
    store_counts = metrics["store"]
    live_terminal = metrics["terminal"]
    print(
        f"server counters: records={metrics['records']} terminal={live_terminal} "
        f"store={store_counts} late_fires={metrics['bridge']['late_fires']} "
        f"max_drift={metrics['bridge']['max_drift_ms']:.2f} ms"
    )
    failures: List[str] = []
    if report.submit_errors:
        failures.append(f"{len(report.submit_errors)} submit errors "
                        f"(first: {report.submit_errors[0]})")
    if report.lost:
        failures.append(f"{report.lost} requests never reached a terminal state")
    if len(report.records) != args.num_requests:
        failures.append(
            f"only {len(report.records)}/{args.num_requests} outcomes collected"
        )
    if live_terminal < len(report.rid_of):
        failures.append(
            f"server terminal count {live_terminal} < submitted {len(report.rid_of)}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: zero lost, zero double-terminal, counters reconcile")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
