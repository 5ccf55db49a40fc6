"""Live HTTP front end over the real-time clock.

``ServeApp`` wires the four serve components together: a
:class:`~repro.serve.bridge.LiveEventLoop` drives the *unmodified* engine
(a bare BatchMaker engine or a cluster of them, per the
:class:`~repro.registry.ServeSpec`; :func:`build_engine`), a
:class:`~repro.serve.store.RequestStore` journals every request's
lifecycle, and a hand-rolled HTTP/1.1 server on asyncio streams (no
third-party deps, keep-alive supported) exposes it:

===========================  ==========================================
``POST /v1/requests``        submit ``{"payload": ..., "deadline": s,
                             "tag": ...}`` -> 201 + record JSON (400 for
                             a deadline that is not a positive finite
                             number)
``GET /v1/requests/<id>``    lifecycle record (state, timestamps, latency)
``GET /v1/requests/<id>/result``  result payload once SUCCEEDED (409 before)
``POST /v1/requests/<id>/cancel`` abort a non-terminal request
``GET /healthz``             liveness + drain state
``GET /metrics``             JSON counters: store states, engine terminal
                             counts, bridge drift stats, HTTP totals
``POST /v1/shutdown``        graceful drain (same path as SIGINT/SIGTERM)
===========================  ==========================================

Engine outcomes map onto store states at the sync boundary (cursor walk
over the server's terminal lists, run after every timer pump):
``finished -> SUCCEEDED``, ``timed_out -> FAILED``, ``rejected ->
FAILED`` (the reject reason is preserved), client cancels and shutdown
drains -> ``ABORTED``.  A request cancelled out from under the engine is
*detached*: its eventual engine outcome is counted
(``late_terminals``) but can never illegally re-terminalise the record.
A request whose ``Content-Length`` is not a non-negative integer gets 400
and the connection closes.

Graceful shutdown (SIGINT/SIGTERM or ``POST /v1/shutdown``): new submits
get 503, cluster replicas flip to DRAINING (the autoscaler's
drain-before-retire state), in-flight requests get ``drain_grace``
seconds to finish, stragglers and still-queued requests are marked
ABORTED in the store, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.cluster.cluster import build_cluster
from repro.registry import build_server
from repro.registry.specs import ServeSpec
from repro.serve import store as store_mod
from repro.serve.bridge import LiveEventLoop
from repro.serve.store import RequestRecord, RequestStore
from repro.sim.events import EventLoop


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    503: "Service Unavailable",
}


def build_engine(spec: ServeSpec, loop: Optional[EventLoop] = None):
    """The engine a :class:`ServeSpec` puts behind the front door: its
    cluster, else its server (the live app and the parity harness's
    simulated twin both build through here)."""
    if spec.cluster is not None:
        return build_cluster(spec.cluster, loop=loop)
    return build_server(spec.server, loop=loop)


class ServeApp:
    """One live serving deployment (see module docstring)."""

    def __init__(self, spec: ServeSpec):
        self.spec = spec
        self.live = LiveEventLoop()
        self.server = build_engine(spec, loop=self.live)
        self.store = RequestStore(spec.journal)
        # Records journalled by a previous life of this journal that never
        # reached a terminal state died with that process: abort them now
        # so no accepted request is ever left unresolved (kill-and-replay
        # safety; tests/test_serve_shutdown.py).
        self.recovered = self.store.abort_non_terminal(
            self.live.clock.now(), reason="crash_recovered"
        )
        # Engine request id -> store rid, dropped at terminal sync or
        # cancel; a dropped id's late engine outcome is counted, not applied.
        self._rid_of: Dict[int, int] = {}
        # Store rid -> live engine request (RUNNING promotion + cancel).
        self._inflight: Dict[int, Any] = {}
        self._cursors = [0, 0, 0]
        self.late_terminals = 0
        self.http_requests = 0
        self.draining = False
        self._started_monotonic = time.monotonic()
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self.port: Optional[int] = spec.port or None
        # Status becomes visible the moment the engine's callbacks ran:
        # every pump (timer-driven or inline after a submit) ends in a sync.
        self.live.after_pump = lambda fired: self.sync()

    # -- engine <-> store sync --------------------------------------------

    def sync(self) -> None:
        """Fold newly terminal engine outcomes onto store records and
        promote started-but-unfinished ones to RUNNING.  Cursor-based like
        the cluster's reconciliation, so each outcome is visited once."""
        buckets = (
            (self.server.finished, store_mod.SUCCEEDED),
            (self.server.timed_out, store_mod.FAILED),
            (self.server.rejected, store_mod.FAILED),
        )
        for index, (bucket, state) in enumerate(buckets):
            cursor = self._cursors[index]
            while cursor < len(bucket):
                request = bucket[cursor]
                cursor += 1
                rid = self._rid_of.pop(request.request_id, None)
                if rid is None:
                    # Detached (client cancel / shutdown abort) or from a
                    # previous store epoch: never re-terminalise.
                    self.late_terminals += 1
                    continue
                self._inflight.pop(rid, None)
                record = self.store.get(rid)
                if (
                    record.state == store_mod.PENDING
                    and request.start_time is not None
                ):
                    self.store.transition(
                        rid, store_mod.RUNNING, request.start_time
                    )
                self.store.transition(
                    rid,
                    state,
                    request.terminal_time,
                    reason=request.cancel_reason
                    if state == store_mod.FAILED
                    else None,
                    result=request.result,
                )
            self._cursors[index] = cursor
        for rid, request in self._inflight.items():
            if request.start_time is not None:
                record = self.store.get(rid)
                if record.state == store_mod.PENDING:
                    self.store.transition(
                        rid, store_mod.RUNNING, request.start_time
                    )

    def outstanding(self) -> int:
        """Engine-side in-flight count (drain progress)."""
        if self.spec.cluster is not None:
            return sum(r.outstanding() for r in self.server.replicas)
        return self.server.manager.outstanding()

    # -- request operations (transport-independent; the bench drives these
    # -- directly to price the front end without socket noise) -------------

    def submit_payload(
        self,
        payload: Any,
        deadline: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> Dict[str, Any]:
        if self.draining:
            raise _HttpError(503, "server is draining")
        now = self.live.clock.now()
        record = self.store.create(payload, now, tag=tag, deadline=deadline)
        request = self.server.submit(payload, deadline=deadline)
        self._rid_of[request.request_id] = record.rid
        self._inflight[record.rid] = request
        # Run the arrival event (and anything it cascades) before
        # answering, so the response already reflects admission outcomes
        # (e.g. an SLA reject is FAILED in the very submit response).
        self.live.pump_now()
        return self.store.get(record.rid).to_dict()

    def _record(self, rid: int) -> RequestRecord:
        record = self.store.get(rid)
        if record is None:
            raise _HttpError(404, f"unknown request id {rid}")
        return record

    def status(self, rid: int) -> Dict[str, Any]:
        return self._record(rid).to_dict()

    def result(self, rid: int) -> Dict[str, Any]:
        record = self._record(rid)
        if record.state != store_mod.SUCCEEDED:
            raise _HttpError(
                409, f"request {rid} is {record.state}, not SUCCEEDED"
            )
        return {"rid": rid, "result": record.result}

    def cancel(self, rid: int) -> Dict[str, Any]:
        record = self._record(rid)
        if record.terminal:
            raise _HttpError(409, f"request {rid} is already {record.state}")
        request = self._inflight.pop(rid, None)
        if request is not None:
            self._rid_of.pop(request.request_id, None)
        self.store.transition(
            rid, store_mod.ABORTED, self.live.clock.now(), reason="client_cancel"
        )
        return self.store.get(rid).to_dict()

    def metrics(self) -> Dict[str, Any]:
        counts = self.store.counts()
        engine = {
            "finished": len(self.server.finished),
            "timed_out": len(self.server.timed_out),
            "rejected": len(self.server.rejected),
        }
        if self.spec.cluster is not None:
            engine["cluster"] = self.server.cluster_counters.as_dict()
        return {
            "store": counts,
            "terminal": self.store.terminal_count(),
            "records": len(self.store),
            "engine": engine,
            "bridge": self.live.drift_stats(),
            "http_requests": self.http_requests,
            "late_terminals": self.late_terminals,
            "crash_recovered": len(self.recovered),
            "draining": self.draining,
            "uptime_s": time.monotonic() - self._started_monotonic,
        }

    # -- graceful shutdown -------------------------------------------------

    async def shutdown(self) -> None:
        """Drain in-flight work, abort the rest, release everything."""
        if self.draining:
            return
        self.draining = True
        if self.spec.cluster is not None:
            # Reuse drain-before-retire: replicas stop being routable and
            # retire once their outstanding work telescopes to zero.
            self.server.stop_routing()
        else:
            self.server.manager.wake()
        deadline = time.monotonic() + self.spec.drain_grace
        while self.outstanding() > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        self.live.pump_now()
        self.sync()
        # Whatever is still non-terminal (queued, or mid-compute past the
        # grace) is aborted — exactly once, the store forbids more.
        for record in self.store.abort_non_terminal(
            self.live.clock.now(), reason="shutdown"
        ):
            request = self._inflight.pop(record.rid, None)
            if request is not None:
                self._rid_of.pop(request.request_id, None)
        if self._http_server is not None:
            self._http_server.close()
            try:
                await self._http_server.wait_closed()
            except Exception:
                pass
        self.live.detach()
        self.store.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- HTTP transport ----------------------------------------------------

    async def serve(self, ready: Optional[threading.Event] = None) -> int:
        """Run until shut down; returns the exit code (0: a shutdown always
        drains, aborting what the grace period leaves)."""
        self.live.attach()
        self._stopped = asyncio.Event()
        self._http_server = await asyncio.start_server(
            self._handle_conn, self.spec.host, self.spec.port
        )
        self.port = self._http_server.sockets[0].getsockname()[1]
        aio = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                aio.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or non-unix loop: tests drive shutdown()
                # directly instead.
                break
        if ready is not None:
            ready.set()
        await self._stopped.wait()
        return 0

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, _version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(writer, 400, {"error": "bad request line"})
                    break
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    await self._respond(
                        writer, 400, {"error": f"bad Content-Length {declared!r}"}
                    )
                    break
                length = int(declared)
                body = await reader.readexactly(length) if length else b""
                self.http_requests += 1
                try:
                    status, payload = self._route(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception as exc:  # defensive: never kill the conn
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "?")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "GET only")
            return 200, {
                "status": "draining" if self.draining else "ok",
                "now": self.live.clock.now(),
            }
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "GET only")
            return 200, self.metrics()
        if path == "/v1/shutdown":
            if method != "POST":
                raise _HttpError(405, "POST only")
            asyncio.ensure_future(self.shutdown())
            return 200, {"status": "draining"}
        if path == "/v1/requests":
            if method != "POST":
                raise _HttpError(405, "POST only")
            data = _parse_json(body)
            if "payload" not in data:
                raise _HttpError(400, "missing 'payload'")
            deadline = data.get("deadline")
            # bool is an int subclass (``true`` is not a 1 s deadline); JSON
            # NaN / Infinity parse to floats the engine refuses.
            if deadline is not None and (
                type(deadline) not in (int, float) or not 0 < deadline < math.inf
            ):
                raise _HttpError(400, "deadline must be a positive finite number")
            return 201, self.submit_payload(
                data["payload"], deadline=deadline, tag=data.get("tag")
            )
        if path.startswith("/v1/requests/"):
            rest = path[len("/v1/requests/"):]
            parts = rest.split("/")
            try:
                rid = int(parts[0])
            except ValueError:
                raise _HttpError(404, f"bad request id {parts[0]!r}")
            if len(parts) == 1:
                if method != "GET":
                    raise _HttpError(405, "GET only")
                return 200, self.status(rid)
            if len(parts) == 2 and parts[1] == "result":
                if method != "GET":
                    raise _HttpError(405, "GET only")
                return 200, self.result(rid)
            if len(parts) == 2 and parts[1] == "cancel":
                if method != "POST":
                    raise _HttpError(405, "POST only")
                return 200, self.cancel(rid)
        raise _HttpError(404, f"no route for {method} {path}")


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        raise _HttpError(400, "empty body (JSON expected)")
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise _HttpError(400, f"bad JSON: {exc}")
    if not isinstance(data, dict):
        raise _HttpError(400, "JSON object expected")
    return data


class ServeHandle:
    """A live app running in a daemon thread (tests, parity, bench)."""

    def __init__(self, app: ServeApp, thread: threading.Thread):
        self.app = app
        self.thread = thread

    @property
    def port(self) -> int:
        return self.app.port

    def stop(self, timeout: float = 10.0) -> None:
        if self.app._stopped is not None and not self.app.draining:
            loop = self.app.live._aio
            if loop is not None:
                asyncio.run_coroutine_threadsafe(self.app.shutdown(), loop)
        self.thread.join(timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Hard stop without the drain (kill-and-replay tests): the journal
        is left exactly as the crash would leave it."""
        loop = self.app.live._aio
        if loop is not None:
            loop.call_soon_threadsafe(self._abandon)
        self.thread.join(timeout)

    def _abandon(self) -> None:
        app = self.app
        app.draining = True  # refuse further submits
        if app._http_server is not None:
            app._http_server.close()
        app.live.detach()
        app.store.close()  # append handle closed; no terminal flush
        if app._stopped is not None:
            app._stopped.set()


def start_in_thread(spec: ServeSpec, timeout: float = 10.0) -> ServeHandle:
    """Run ``ServeApp(spec)`` on a fresh asyncio loop in a daemon thread
    and block until it is accepting connections."""
    app = ServeApp(spec)
    ready = threading.Event()

    def runner() -> None:
        asyncio.run(app.serve(ready=ready))

    thread = threading.Thread(target=runner, daemon=True, name="repro-serve")
    thread.start()
    if not ready.wait(timeout):
        raise RuntimeError("serve app failed to start listening")
    return ServeHandle(app, thread)
