"""Launcher of the ``live_http`` server.

Does what ``python -m repro.serve --port 0`` does — the default LSTM
deployment, in-memory store, drain on SIGTERM — in a process that samples
its own speed (``speed.Sampler``: the server's virtual CPU changes speed
independently of the client's, so only the server can say how fast its
seconds were), and with ``--traced 1`` with the span wrappers installed
first.  Once the server has drained it prints as its last line the speed
samples, the cells and tasks the engine ran, and the layer ledger if traced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import spans
import speed
import workloads

sys.path.insert(0, workloads.SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sampler = speed.Sampler()
    sampler.start()
    ledger = spans.Ledger() if args.traced else None
    if ledger is not None:
        ledger.install()
    from repro.registry.presets import lstm_serve_spec
    from repro.serve.frontend import ServeApp

    app = ServeApp(lstm_serve_spec(port=0))
    if ledger is not None:
        ledger.install_for_server(app.server)

    async def serve() -> int:
        ready = asyncio.Event()
        serving = asyncio.ensure_future(app.serve(ready=ready))
        await ready.wait()
        print(f"serve_sampled: listening on http://127.0.0.1:{app.port}", flush=True)
        return await serving

    code = asyncio.run(serve())
    sampler.stop()
    # Before stats(): it builds a LatencyStats, which is wrapped.
    report = ledger.report() if ledger is not None else None
    stats = app.server.stats()
    print(
        json.dumps({
            "samples": sampler.samples,
            "cells": stats.nodes_processed,
            "tasks": stats.tasks_submitted,
            "ledger": report,
        }),
        flush=True,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
