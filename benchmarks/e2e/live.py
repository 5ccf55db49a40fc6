"""The ``live_http`` repetition: a real server process over real sockets.

One asyncio client, ``connections`` keep-alive connections, a fresh server
per repetition: what ``python -m repro.serve --port 0`` serves (in-memory
store), started by ``serve_sampled.py`` so that the server process samples
its own speed.

* Phase A, closed loop: every connection posts its share of
  ``closed_requests``, keeping ``window`` of them outstanding so the
  server is never idle; the phase ends when ``/metrics`` reports them all
  terminal.  This is the ceiling: its host time is the CPU seconds the
  server used, in reference seconds (``speed.py``) — the client's virtual
  CPU changes speed independently of the server's.
* Phase B, open loop: a Poisson plan at ``rate`` req/s; each request is
  timed from the moment it was *due*, so a stall is charged to every
  request it delays (no coordinated omission).  How late the generator
  itself woke is reported next to it.

The client speaks HTTP with its own few lines, not ``repro.serve.loadgen``:
a change to the program's client must not move the benchmark's numbers.
The same phase-B plan is then run through the simulator (the server's
bare engine under the virtual clock): that twin gives the workload its
``sim_*`` values, what the modelled device would take for this traffic.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TERMINAL = ("SUCCEEDED", "FAILED", "ABORTED")
CATCH_UP_TIMEOUT_S = 30.0


class Conn:
    """One keep-alive HTTP/1.1 connection carrying JSON both ways."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Conn":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    def send(self, method: str, path: str, obj: Any = None) -> None:
        body = b"" if obj is None else json.dumps(obj).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
        self.writer.write(head.encode("latin-1") + body)

    async def receive(self) -> Tuple[int, Any]:
        """The next response on the connection, in the order of the sends."""
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = json.loads(await self.reader.readexactly(length)) if length else None
        return status, payload

    async def request(self, method: str, path: str, obj: Any = None) -> Tuple[int, Any]:
        self.send(method, path, obj)
        return await self.receive()

    def close(self) -> None:
        self.writer.close()


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile; NaN when there is nothing to rank (the
    caller reports why as a problem)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))]


def process_usage(pid: int) -> Tuple[float, float]:
    """(CPU seconds so far, peak resident MiB) of a running process.  The
    server has one thread, so its scheduler statistics (nanoseconds on a
    CPU) are the whole process; kernels without them leave clock ticks."""
    try:
        with open(f"/proc/{pid}/schedstat") as fh:
            cpu_s = int(fh.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        cpu_s = 0.0
    if cpu_s == 0.0:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu_s = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/status") as fh:
        hwm_kb = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    return cpu_s, hwm_kb / 1024.0


def start_server(traced: bool) -> subprocess.Popen:
    """The launcher next to this file: the program's server in a process
    that samples its own speed (and wraps the layers, if traced)."""
    command = [sys.executable, os.path.join(HERE, "serve_sampled.py"), "--traced", str(int(traced))]
    # stderr is dropped: the bridge logs every late timer there and a full
    # pipe nobody reads would block the server.
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )


async def wait_terminal(conn: Conn, count: int, problems: List[str]) -> Dict[str, Any]:
    """Poll ``/metrics`` until ``count`` records are terminal; giving up
    after ``CATCH_UP_TIMEOUT_S`` is a problem of the repetition."""
    deadline = time.perf_counter() + CATCH_UP_TIMEOUT_S
    while True:
        _, metrics = await conn.request("GET", "/metrics")
        if metrics["terminal"] >= count:
            return metrics
        if time.perf_counter() > deadline:
            problems.append(
                f"only {metrics['terminal']} of {count} requests terminal "
                f"after {CATCH_UP_TIMEOUT_S:.0f} s"
            )
            return metrics
        await asyncio.sleep(0.001)


async def closed_loop(
    conns: List[Conn], total: int, window: int, payload: int,
    errors: List[str], problems: List[str],
) -> None:
    """Phase A: every connection keeps ``window`` POSTs outstanding until
    its share of ``total`` is answered; returns when the server reports
    them all terminal."""

    async def worker(conn: Conn, count: int) -> None:
        for _ in range(min(window, count)):
            conn.send("POST", "/v1/requests", {"payload": payload})
        for answered in range(count):
            status, record = await conn.receive()
            if status != 201:
                errors.append(f"closed loop: HTTP {status} {record}")
            if answered + window < count:
                conn.send("POST", "/v1/requests", {"payload": payload})

    share, extra = divmod(total, len(conns))
    await asyncio.gather(
        *(worker(conn, share + (i < extra)) for i, conn in enumerate(conns))
    )
    await wait_terminal(conns[0], total, problems)


async def open_loop(
    conns: List[Conn], plan: List[Tuple[float, int]], errors: List[str]
) -> Dict[str, Any]:
    """Phase B; per request: how late it woke, due -> 201, and its rid."""
    pool: asyncio.Queue = asyncio.Queue()
    for conn in conns:
        pool.put_nowait(conn)
    clock = time.perf_counter
    origin = clock() + 0.05
    late: List[float] = []
    submit: List[float] = []
    rids: List[int] = []

    async def one(when: float, payload: int) -> None:
        due = origin + when
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(clock() - due)
        conn = await pool.get()
        try:
            status, record = await conn.request("POST", "/v1/requests", {"payload": payload})
        finally:
            pool.put_nowait(conn)
        if status == 201:
            submit.append(clock() - due)
            rids.append(record["rid"])
        else:
            errors.append(f"open loop: HTTP {status} {record}")

    await asyncio.gather(*(one(when, payload) for when, payload in plan))
    return {"late": late, "submit": submit, "rids": rids}


async def fetch_records(conns: List[Conn], rids: List[int]) -> List[Dict[str, Any]]:
    async def fetch(conn: Conn, mine: List[int]) -> List[Dict[str, Any]]:
        return [(await conn.request("GET", f"/v1/requests/{rid}"))[1] for rid in mine]

    parts = await asyncio.gather(
        *(fetch(conn, rids[i :: len(conns)]) for i, conn in enumerate(conns))
    )
    return [record for part in parts for record in part]


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM (the server drains and exits 0), wait, return what it printed."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out


async def drive(cfg: Dict[str, Any], seed: int, traced: bool) -> Dict[str, Any]:
    length, closed_n = cfg["length"], cfg["closed_requests"]
    generator = workloads.generator(cfg, seed)
    plan = generator.plan(workloads.dataset("live_http", cfg, seed))
    errors: List[str] = []
    problems: List[str] = []

    # time.monotonic() reads the same in the server process, whose speed
    # samples are picked by these timestamps.
    spawned = time.monotonic()
    proc = start_server(traced)
    conns: List[Conn] = []
    try:
        match = re.search(r"http://[^:]+:(\d+)", proc.stdout.readline())
        if match is None:
            raise RuntimeError("the server did not announce a port")
        port = int(match.group(1))
        conns = [await Conn.open(port) for _ in range(cfg["connections"])]
        ready = time.monotonic()

        cpu_before, _ = process_usage(proc.pid)
        await closed_loop(conns, closed_n, cfg["window"], length, errors, problems)
        closed_end = time.monotonic()
        cpu_closed, _ = process_usage(proc.pid)
        phase_b = await open_loop(conns, plan, errors)
        submitted = closed_n + len(plan)
        metrics = await wait_terminal(conns[0], submitted, problems)
        records = await fetch_records(conns, phase_b["rids"])
        cpu_after, rss_mb = process_usage(proc.pid)
    finally:
        for conn in conns:
            conn.close()
        printed = stop_server(proc)

    store, engine = metrics["store"], metrics["engine"]
    if errors:
        problems.append(f"{len(errors)} submit errors (first: {errors[0]})")
    if metrics["records"] != submitted or metrics["terminal"] != submitted:
        problems.append(
            f"{submitted} submitted, {metrics['records']} records, "
            f"{metrics['terminal']} terminal"
        )
    if engine["finished"] != store["SUCCEEDED"]:
        problems.append(f"engine finished {engine['finished']}, store {store['SUCCEEDED']}")
    not_terminal = sum(1 for r in records if r["state"] not in TERMINAL)
    if not_terminal:
        problems.append(f"{not_terminal} open-loop requests never became terminal")
    if any(r["terminal_at"] is not None and r["terminal_at"] < r["submitted_at"] for r in records):
        problems.append("a request finished before it arrived")
    if proc.returncode != 0:
        problems.append(f"the server exited with code {proc.returncode}")
    latencies = [r["latency"] for r in records if r["latency"] is not None]
    if not latencies:
        problems.append("no open-loop request reported a latency")
    failed = submitted - store["SUCCEEDED"]
    report = json.loads(printed.strip().splitlines()[-1])
    if report["cells"] != submitted * length:
        problems.append(f"cells: payloads need {submitted * length}, engine ran {report['cells']}")
    samples = report["samples"]
    setup_s, setup_speed = speed.reference_seconds(ready - spawned, samples, spawned, ready)
    host_s, host_speed = speed.reference_seconds(cpu_closed - cpu_before, samples, ready, closed_end)

    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_wall_s": ready - spawned,
        "setup_speed": setup_speed,
        "host_s": host_s,
        "host_speed": host_speed,
        "wall_s": closed_end - ready,
        "timed_requests": closed_n,
        "timed_cells": closed_n * length,
        "cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": rss_mb,
        "submitted": submitted,
        "failed": failed,
        "problems": problems,
        "ledger": report["ledger"],
        "live": {
            "posts": submitted,
            "submit_p50_ms": 1e3 * percentile(phase_b["submit"], 50),
            "submit_p99_ms": 1e3 * percentile(phase_b["submit"], 99),
            "latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_p99_ms": 1e3 * percentile(latencies, 99),
            "loadgen_late_p99_ms": 1e3 * percentile(phase_b["late"], 99),
            "late_fires": metrics["bridge"]["late_fires"],
            "max_drift_ms": metrics["bridge"]["max_drift_ms"],
            "events_fired": metrics["bridge"]["events_fired"],
            "cells": report["cells"],
            "tasks": report["tasks"],
        },
    }

    # The simulated twin of phase B, after the server is gone.
    twin = generator.run(
        workloads.build("live_http", cfg), workloads.dataset("live_http", cfg, seed)
    )
    outcome = hashlib.sha256(
        "".join(f"{i}:{r['state']}\n" for i, r in enumerate(records)).encode()
    )
    out["exact"] = {
        "fingerprint": outcome.hexdigest(),
        "sim_p50_ms": twin.stats.p_ms(50),
        "sim_p99_ms": twin.stats.p_ms(99),
        "sim_throughput_rps": twin.summary.throughput,
    }
    return out


def run(cfg: Dict[str, Any], seed: int, traced: bool) -> Dict[str, Any]:
    return asyncio.run(drive(cfg, seed, traced))
