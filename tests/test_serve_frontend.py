"""HTTP front end: round trips, error statuses, metrics, cancel."""

import http.client
import json
import socket
import time

import pytest

from repro.registry import ServeSpec
from repro.registry.presets import lstm_padded_spec, lstm_serve_spec
from repro.serve.frontend import start_in_thread
from repro.serve.store import ABORTED, SUCCEEDED

pytestmark = pytest.mark.timing

# A payload this long keeps the engine busy for O(seconds) of wall time,
# so cancel/drain tests act while it is still in flight.
LONG_REQUEST = 60000


@pytest.fixture
def live_server():
    handle = start_in_thread(lstm_serve_spec(port=0))
    yield handle
    handle.stop()


def _call(port, method, path, obj=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    body = None if obj is None else json.dumps(obj)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    payload = json.loads(response.read() or b"{}")
    conn.close()
    return response.status, payload


def _await_state(port, rid, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, record = _call(port, "GET", f"/v1/requests/{rid}")
        assert status == 200
        if record["state"] == state:
            return record
        time.sleep(0.01)
    raise AssertionError(f"request {rid} never reached {state}")


def test_serve_spec_refuses_a_baseline_server():
    """The live front door serves a BatchMaker engine (or a cluster of
    them); a graph-batching baseline is refused with its kind."""
    with pytest.raises(ValueError, match="server.*batchmaker.*padded"):
        ServeSpec(server=lstm_padded_spec(), port=0)


def test_healthz(live_server):
    status, payload = _call(live_server.port, "GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["now"] >= 0.0


def test_submit_status_result_round_trip(live_server):
    port = live_server.port
    status, record = _call(
        port, "POST", "/v1/requests", {"payload": 12, "tag": "t0"}
    )
    assert status == 201
    assert record["tag"] == "t0"
    rid = record["rid"]
    final = _await_state(port, rid, SUCCEEDED)
    assert final["latency"] is not None and final["latency"] > 0.0
    assert final["started_at"] is not None
    status, result = _call(port, "GET", f"/v1/requests/{rid}/result")
    assert status == 200
    assert result["rid"] == rid


def test_cancel_aborts_inflight_request(live_server):
    port = live_server.port
    _, record = _call(port, "POST", "/v1/requests", {"payload": LONG_REQUEST})
    rid = record["rid"]
    status, cancelled = _call(port, "POST", f"/v1/requests/{rid}/cancel")
    assert status == 200
    assert cancelled["state"] == ABORTED
    assert cancelled["reason"] == "client_cancel"
    # Result of a non-SUCCEEDED request is a conflict, and cancelling a
    # terminal record again is too (no double-terminal via the API).
    assert _call(port, "GET", f"/v1/requests/{rid}/result")[0] == 409
    assert _call(port, "POST", f"/v1/requests/{rid}/cancel")[0] == 409


def test_error_statuses(live_server):
    port = live_server.port
    assert _call(port, "GET", "/v1/requests/424242")[0] == 404
    assert _call(port, "GET", "/no/such/route")[0] == 404
    assert _call(port, "POST", "/healthz", {})[0] == 405
    assert _call(port, "GET", "/v1/requests/nonsense")[0] == 404
    status, payload = _call(port, "POST", "/v1/requests", {"tag": "no-payload"})
    assert status == 400 and "payload" in payload["error"]
    assert (
        _call(port, "POST", "/v1/requests", {"payload": 3, "deadline": -1})[0]
        == 400
    )
    # Raw bad JSON.
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.request("POST", "/v1/requests", body="{not json")
    assert conn.getresponse().status == 400
    conn.close()


def test_non_finite_and_boolean_deadlines_get_400(live_server):
    """JSON ``NaN`` / ``Infinity`` parse to floats and ``true`` is an int
    subclass: each used to be accepted (NaN as a request FAILED at once,
    journalled as invalid JSON; ``true`` as a 1 s deadline)."""
    port = live_server.port
    for raw in ("NaN", "Infinity", "-Infinity", "true", "0", '"5"'):
        body = f'{{"payload": 8, "deadline": {raw}}}'
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("POST", "/v1/requests", body=body)
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400, raw
        assert "deadline" in payload["error"]
    assert _call(port, "GET", "/metrics")[1]["records"] == 0


def test_malformed_content_length_gets_400_and_the_server_lives_on(live_server):
    """``int()`` of the header used to raise inside the connection handler:
    an empty reply and an unhandled-exception log line."""
    for declared in ("abc", "-5"):
        with socket.create_connection(("127.0.0.1", live_server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/requests HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n{}"
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), (declared, reply)
        assert b"Connection: close" in reply
    status, payload = _call(live_server.port, "GET", "/healthz")
    assert status == 200 and payload["status"] == "ok"


def test_metrics_shape_and_counts(live_server):
    port = live_server.port
    _, record = _call(port, "POST", "/v1/requests", {"payload": 8})
    _await_state(port, record["rid"], SUCCEEDED)
    status, metrics = _call(port, "GET", "/metrics")
    assert status == 200
    for key in (
        "store",
        "terminal",
        "records",
        "engine",
        "bridge",
        "http_requests",
        "late_terminals",
        "crash_recovered",
        "draining",
        "uptime_s",
    ):
        assert key in metrics, key
    assert metrics["store"][SUCCEEDED] >= 1
    assert metrics["engine"]["finished"] >= 1
    assert metrics["bridge"]["events_fired"] > 0
    assert metrics["http_requests"] >= 2


def test_keep_alive_serves_multiple_requests_per_connection(live_server):
    conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=10)
    for _ in range(3):
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        response.read()
    conn.close()


def test_shutdown_endpoint_drains_and_refuses_new_work(live_server):
    port = live_server.port
    status, payload = _call(port, "POST", "/v1/shutdown")
    assert status == 200 and payload["status"] == "draining"
    live_server.thread.join(10)
    assert not live_server.thread.is_alive()
