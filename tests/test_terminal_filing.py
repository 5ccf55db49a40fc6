"""One terminal path (DESIGN.md §43): a server files each outcome once, in
``InferenceServer._file``, and the live front door folds it there.

Two checks.  An AST scan of ``src/repro``: exactly one function appends to
a server's ``finished`` / ``timed_out`` / ``rejected``.  And a front-door
differential with no sockets: ``ServeApp`` over a virtual-clock stand-in
for its live loop, driven through ``submit_payload`` / ``cancel`` /
``shutdown`` on a bare engine and on a 2-replica cluster, its store
records held against the engine requests behind them.
"""

import ast
import asyncio
from collections import Counter
from pathlib import Path

import pytest

import repro.serve.frontend as frontend
from repro.core.request import BAD_PAYLOAD, RequestState
from repro.faults.sla import SLAConfig
from repro.registry import ServeSpec
from repro.registry.presets import lstm_batchmaker_spec, lstm_cluster_spec
from repro.serve import store as store_mod
from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TERMINAL_LISTS = {"finished", "timed_out", "rejected"}
FILING = {("server.py", "InferenceServer._file")}


# -- one filing function ------------------------------------------------------


def filing_sites(root=SRC):
    """``{(path under root, qualified function)}`` of every function whose
    body appends to (or extends, inserts into, adds to) an attribute named
    like a terminal list: ``x.finished.append(r)``, ``x.rejected += [r]``."""
    sites = set()

    def files(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            mutates = node.func.attr in ("append", "extend", "insert")
        elif isinstance(node, ast.AugAssign):
            target, mutates = node.target, True
        else:
            return False
        return mutates and isinstance(target, ast.Attribute) and target.attr in TERMINAL_LISTS

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (*scope, child.name)
            elif files(child):
                sites.add((where, ".".join(scope)))
            visit(child, where, inner)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(root).as_posix(), ())
    return sites


def test_exactly_one_function_files_a_terminal_request():
    assert filing_sites() == FILING


def test_the_scan_names_every_filing_site(tmp_path):
    """The four ways the filing used to be spelt, each a site: an
    ``append``, an ``extend``, a ``+=`` and an ``insert`` through another
    object; a local list of that name (not a server's) is no site."""
    (tmp_path / "mod.py").write_text(
        "class Server:\n"
        "    def on_terminal(self, r):\n        self.finished.append(r)\n"
        "    def _fold(self, r):\n        if r:\n            self.timed_out.extend([r])\n"
        "    def _reject(self, r):\n        self.rejected += [r]\n"
        "def finish_request(server, r):\n    server.finished.insert(0, r)\n"
        "def complete(r):\n    finished = []\n    finished.append(r)\n    return finished\n"
    )
    assert filing_sites(tmp_path) == {
        ("mod.py", "Server.on_terminal"),
        ("mod.py", "Server._fold"),
        ("mod.py", "Server._reject"),
        ("mod.py", "finish_request"),
    }


# -- the front-door differential --------------------------------------------


class SteppedLoop(EventLoop):
    """What ``ServeApp`` uses of its live loop, over a virtual clock: the
    test moves time with ``run(until=...)`` between front-door calls."""

    def __init__(self):
        super().__init__(VirtualClock())

    def pump_now(self):
        return self.run_due()

    def attach(self, aio_loop=None):
        pass

    def detach(self):
        pass

    def drift_stats(self):
        return {}


STORE_STATE = {
    RequestState.FINISHED: store_mod.SUCCEEDED,
    RequestState.TIMED_OUT: store_mod.FAILED,
    RequestState.REJECTED: store_mod.FAILED,
}
MS = 1e-3


def _spec(kind):
    # Replicas shed a burst (``load_shed``); the cluster's own SLA gate
    # rejects what its Little's-law wait says misses a 20 ms deadline.
    replica = lstm_batchmaker_spec().replace(sla=SLAConfig(max_queue_delay=1 * MS).to_dict())
    if kind == "bare":
        return ServeSpec(server=replica, port=0, drain_grace=0.01)
    cluster = lstm_cluster_spec(num_replicas=2).replace(
        replica=replica, sla=SLAConfig(default_deadline=20 * MS).to_dict()
    )
    return ServeSpec(cluster=cluster, port=0, drain_grace=0.01)


class Harness:
    """A ``ServeApp`` on a ``SteppedLoop`` that remembers, per store rid,
    the engine request ``submit_payload`` made, and counts every outcome
    the server hands the front door."""

    def __init__(self, kind, monkeypatch):
        monkeypatch.setattr(frontend, "LiveEventLoop", SteppedLoop)
        self.app = app = frontend.ServeApp(_spec(kind))
        self.engine_request = {}
        self.folded = Counter()
        self.running_seen = 0
        submit, fold = app.server.submit, app.server.on_outcome

        def remember(payload, deadline=None):
            request = submit(payload, deadline=deadline)
            self.engine_request[len(self.engine_request)] = request
            return request

        def count(request):
            self.folded[request.request_id] += 1
            fold(request)

        app.server.submit = remember
        app.server.on_outcome = count

    def at(self, seconds):
        self.app.live.run(until=seconds)

    def submit(self, payload, deadline=None):
        return self.app.submit_payload(payload, deadline=deadline)["rid"]

    def attached(self):
        return [
            (rid, request)
            for rid, request in self.engine_request.items()
            if self.app.store.get(rid).reason not in ("client_cancel", "shutdown")
        ]

    def check_running(self, through_metrics):
        """An attached record reads RUNNING exactly while its engine
        request has started and is not terminal: through ``/metrics``'
        store counts, or through ``status()`` one record at a time."""
        started = {
            rid
            for rid, request in self.attached()
            if request.start_time is not None and not request.terminal
        }
        if through_metrics:
            assert self.app.metrics()["store"][store_mod.RUNNING] == len(started)
        else:
            running = {
                rid
                for rid, _ in self.attached()
                if self.app.status(rid)["state"] == store_mod.RUNNING
            }
            assert running == started
        self.running_seen = max(self.running_seen, len(started))


def _drive(harness):
    """Finishes, deadline timeouts, a refused payload, two client cancels,
    a burst the SLA gates shed, then a shutdown with work in flight; the
    engine runs on after the drain, so detached requests reach an
    outcome too."""
    app = harness.app
    cancels = []
    for step in range(30):
        harness.at(step * MS)
        if step % 5 == 4:
            harness.submit(400, deadline=2 * MS)
        else:
            harness.submit(8)
        if step in (3, 13):
            cancels.append(harness.submit(600))
        if step in (6, 16):
            record = app.cancel(cancels[-1])
            assert (record["state"], record["reason"]) == (store_mod.ABORTED, "client_cancel")
        if step == 10:
            with pytest.raises(frontend._HttpError) as refused:
                harness.submit("abc")
            assert refused.value.status == 400
        if step == 20:
            for _ in range(60):
                harness.submit(100)
        harness.check_running(through_metrics=step % 2 == 0)
    for _ in range(4):
        harness.submit(3000)
    shutdown_at = app.live.now()
    asyncio.run(app.shutdown())
    with pytest.raises(frontend._HttpError) as draining:
        harness.submit(8)
    assert draining.value.status == 503
    app.live.run()
    return shutdown_at


@pytest.mark.parametrize("kind", ["bare", "cluster"])
def test_every_record_folds_its_engine_outcome_once(kind, monkeypatch):
    harness = Harness(kind, monkeypatch)
    app = harness.app
    shutdown_at = _drive(harness)

    # Each filed outcome reached the front door exactly once, and only
    # filed outcomes did.
    filed = app.server.terminal_requests()
    assert harness.folded == Counter(r.request_id for r in filed)
    assert len(filed) == len(harness.engine_request)  # the engine ran dry

    late = 0
    for rid, request in harness.engine_request.items():
        record = app.store.get(rid)
        assert request.terminal
        if record.reason in ("client_cancel", "shutdown"):
            # Detached: aborted by the front door, engine outcome counted.
            assert record.state == store_mod.ABORTED
            if record.reason == "shutdown":
                assert record.terminal_at == shutdown_at
            late += 1
            continue
        assert record.state == STORE_STATE[request.state], rid
        assert record.terminal_at == request.terminal_time, rid
        assert record.started_at == request.start_time, rid
        expected = request.cancel_reason if record.state == store_mod.FAILED else None
        assert record.reason == expected, rid
        if record.state == store_mod.SUCCEEDED:
            assert record.result is request.result
    assert app.late_terminals == late
    assert app._inflight == {} and app._rid_of == {}

    # The traffic covered every kind of outcome the front door maps.
    kinds = Counter(
        record.reason.split(":")[0] if record.reason else record.state
        for record in app.store.records.values()
    )
    wanted = {
        store_mod.SUCCEEDED, "deadline", "load_shed", BAD_PAYLOAD,
        "client_cancel", "shutdown",
    }
    if kind == "cluster":
        wanted.add("sla_reject")
    assert wanted <= set(kinds), kinds
    assert kinds["client_cancel"] == 2 and late >= kinds["client_cancel"]
    if kind == "bare":
        # A cluster's logical request starts when its outcome folds.
        assert harness.running_seen > 0
