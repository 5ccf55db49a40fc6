"""A clock-free budget for the per-task hot path.

The serving loop's cost per executed cell is mostly Python function calls
(DESIGN.md §19), and their number — unlike a timing — is exact and
repeatable.  A small seeded ``lstm_chain`` run, a ``tree_lstm`` one and two
Seq2Seq ones (static and dynamic decode: the explicit-node path) are each
counted under ``sys.setprofile`` (every Python ``call`` and C ``c_call``
inside ``LoadGenerator.run``) and held to a budget per executed cell, so a
change that walks a task once more per stage fails here, on any host,
before a benchmark is run.  The objects either run leaves behind for the
cyclic collector to walk are budgeted the same way (DESIGN.md §20, §24).

The opt-in subsystems (lazy kick, memory-aware formation, energy
accounting, tracing) go through the same counter: switched off they must
fit the plain budget — the guard costs nothing — and switched on a budget
of their own (DESIGN.md §21; these rows replace the wall-clock ``slo`` /
``memory`` / ``energy`` / ``trace`` sections of the engine micro-bench).

The counter sees Python-level calls and the C functions the interpreter
calls directly; numpy's Cython-level methods (a scalar
``Generator.integers``, say) raise no profiler event, so no row prices a
numpy draw: a change that trades Python calls for draws, or back, moves
these rows by the Python side only (DESIGN.md §41).
"""

import gc
import sys

import pytest

from repro.cluster import build_cluster
from repro.core.request import TERMINAL_STATES, InferenceRequest, RequestState
from repro.core.request_processor import RequestProcessor
from repro.core.scheduler import CellTypeQueue, Scheduler
from repro.faults import SLAConfig
from repro.gpu.memory import MemorySpec
from repro.registry import build_server, presets
from repro.trace import TraceRecorder
from repro.workload import (
    FixedLengthDataset,
    LoadGenerator,
    Seq2SeqDataset,
    SequenceDataset,
    TreeDataset,
)

REQUESTS = 300
# 1.25x what this run read when the budget was last set (8.99 calls per
# cell since the device keeps a busy total, not a tagged interval per
# task, and its in-flight signals live with the worker's tasks, DESIGN.md
# §42; 9.36 since an arrival kicks the scheduler only while a worker is idle,
# DESIGN.md §40; 9.73 since a length is one scalar draw, an arrival waits
# in its server's heap, a chain's fixed arguments are checked once per
# model and a task does not re-walk its plan, §39; 10.52 since a ready count is a
# slot, a time read one call and a task time
# one memo lookup, §37; 12.81 before it, §35; 13.15 while each
# run left its queue through
# ``CellTypeQueue.remove`` and pinned through ``Subgraph.pin``, §34; 13.19
# while the scheduler removed an exhausted
# subgraph after its commit and admitted it through four calls, §31; 16.68
# while each pin moved its subgraph between per-worker eligibility lists,
# §30; 24.09 while in-flight state counted tasks, 28.17 while every
# scheduled cell built a node and bound through the placement policy, 28.6
# with the kernel-list stream beside ``run_for``, 75.9 before the
# one-pass-per-task change on the same run).  Lower it when the path
# gets shorter; do not raise it without saying in DESIGN.md §19 what the
# extra calls buy.
CALLS_PER_CELL_BUDGET = 11.2
# The same for trees, payload sampling included, 1.25x rounded down: 18.62
# calls per cell since the device keeps no interval per task (DESIGN.md
# §42); 19.08 since the sampler takes its words in blocks (DESIGN.md §41: a block refill
# counts 10 calls, 7 of them numpy's Python-level ``np.prod`` inside
# ``integers(size=...)``, and a one-word refill 2, about 2.2 refills per
# tree, while the ~33 scalar ``integers`` calls they replace per tree
# counted none, numpy's Cython methods raising no profiler event; the
# budget was not raised for it); 18.64 before
# the sampler change (DESIGN.md §40; 18.87 before it, §39; 19.06
# before that, §37; 22.24
# before that, §35; 22.39 with
# four hand-outs, §34;
# 27.93 while every leaf was
# admitted and handed out through calls of its own, §32; 33.90
# while the sampler built one ``TreeNodeSpec`` per node and unfold
# flattened them, 38.90 before §31, 43.26 before §30, 47.80 before §27,
# 48.7 before §23), 92.5 with one explicit node per tree node and
# dict-backed subgraphs (DESIGN.md §20).
TREE_CALLS_PER_CELL_BUDGET = 23.2
# Seq2Seq: the encoder is one run, and so is the static decoder; the
# dynamic row's decoder is explicit nodes grown one ``Model.extend`` at a
# time.  1.25x what the runs read when the rows were set: 31.47 static and
# 74.15 dynamic calls per cell (DESIGN.md §42, no interval or tag tuple per
# task; 34.43 and 77.02 before it, §40; 34.59 and 77.18 before it,
# §39; 35.95 and 78.52 before that,
# §37; 47.01 and 91.75 before that,
# §35; 47.35 and 94.43 before that, §34; 47.39 and 94.47 with four
# calls per admitted subgraph, §33; 96.09 and 117.49 while every
# step was a ``CellNode`` found by the partition's component search and
# ``extend`` normalised the payload for every completed cell, §32; 101.84
# and 120.36 with two ready deltas per generic commit, 109.58 and 131.39
# before §31, 124.38 and 145.06 before §30, 129.8 and 176.7 while
# ``extend`` was handed a node object and the dynamic decoder counted its
# steps by census).
SEQ2SEQ_CALLS_PER_CELL_BUDGET = {"static": 39.3, "dynamic": 92.7}
# Objects the cyclic collector tracks that a run leaves behind, per executed
# cell, each walked by every full collection.  Trees, payloads included:
# 0.144 when the budget was set — the device keeps no ``(start, end, tag)``
# tuple per task (DESIGN.md §42) — 0.326 before it, 0.316 — a payload is three lists, whatever its
# size (DESIGN.md §32) — 1.236 while it was one ``TreeNodeSpec`` per cell
# (§24), 3.26 while served requests kept their graph, subgraphs and nodes,
# 9.16 before flat trees (§20).  Chains: 0.050 (§42), 0.20 while each
# task left its interval on the device, 1.79 while served requests kept
# their engine state.
TREE_TRACKED_PER_CELL_BUDGET = 0.18
CHAIN_TRACKED_PER_CELL_BUDGET = 0.063
# The cluster front door, on the ledger's ``cluster_short`` shape at a tenth
# of its requests: calls per request at 8 replicas, and the calls per request
# each further replica adds ((64 replicas - 8) / 56).  1.25x what the run
# read when the rows were last set: 162.7 per request and 4.54 per replica
# (DESIGN.md §42, no interval or tag tuple per task; 167.6 and 4.81 before
# it, §40, no kick for a busy engine and one key call per candidate;
# 193.5 and 6.12 before it, §39, one armed arrival per server; 206.5 and
# 6.17 before that,
# §37; 231.6 and 7.05 since each replica's engine hook folds
# its own outcomes, §36;
# 256.9 and 10.13 while every arrival compared three terminal-list lengths
# per replica, §35; 260.9 per request before it, §34; 261.9 since §31; 284.2
# and 10.54 before §31, 331.7 and 11.3 before §30, 351.7 when added, §26);
# 462.6 and 25.3 while every arrival walked every replica.
CLUSTER_REQUESTS = 2000
CLUSTER_CALLS_PER_REQUEST_BUDGET = 203.4
CLUSTER_CALLS_PER_REPLICA_BUDGET = 5.68
# Collector-tracked objects one ``submit`` allocates: 2.001 when set (the
# request and its arrival heap entry; the one armed event and its loop
# entry are shared by all; DESIGN.md §39); 4 while every arrival was a loop
# event with a heap entry of its own; 7 with a closure per arrival.
SUBMIT_TRACKED_BUDGET = 2.51


def _lstm_server(formation=None, **runtime):
    """The ledger's ``lstm_chain`` server; ``formation`` names a swap."""
    policies = {"formation": formation} if formation else None
    return build_server(presets.lstm_batchmaker_spec(policies=policies), **runtime)


def _lstm_run(make_server=_lstm_server):
    return (
        make_server(),
        LoadGenerator(rate=5000.0, num_requests=REQUESTS, seed=42),
        SequenceDataset(seed=43),
    )


def _traced_server():
    server = _lstm_server()
    server.attach_trace(TraceRecorder(server.loop, sample_every=1))
    return server


# Subsystem -> (server with it wired in but switched off, or None where off
# is the plain server of ``_lstm_run``; server with it on; calls per cell
# allowed when on = 1.25x what the run read when the row was last set:
# 10.62, 13.77, 9.10 and 11.55 against 8.99 plain (DESIGN.md §42; 10.98,
# 14.13, 9.53 and 11.91 against 9.36 before it, §40; 11.35,
# 14.51, 9.90 and 12.29 against 9.73 before it, §39; 12.14,
# 15.30, 10.68 and 13.07 against 10.52 before it — lazy kick: DESIGN.md
# §38, its slack reads the manager's per-node EWMA instead of a predictor
# fed from every task and every terminal request; 14.28 before that; the
# rest: DESIGN.md §37; 16.77,
# 17.58, 12.81 and 15.59 against 12.81 plain, §35; 17.15,
# 17.96, 13.19 and 15.97 against 13.19 plain, §31; 20.63,
# 21.45, 16.61 and 19.46 against 16.68 before it, 28.30, 28.94, 24.79 and
# 27.30 against 24.09 before §30, 32.9, 35.4, 29.4 and 31.6 against 28.8
# when added); a check that it really was on).
# The deadline and the device are roomy, so all 300 requests still finish
# and the cell count is the plain run's.
OPT_IN = {
    "lazy_kick": (
        lambda: _lstm_server("lazy_kick"),
        lambda: _lstm_server("lazy_kick", sla=SLAConfig(default_deadline=0.5)),
        13.3,
        lambda server: server.policies.formation.kicks > 0,
    ),
    "memory_aware": (
        lambda: _lstm_server("memory_aware"),
        lambda: _lstm_server("memory_aware", memory=MemorySpec(capacity=16 << 30)),
        17.2,
        lambda server: server.policies.formation.active,
    ),
    "energy": (
        None,
        lambda: build_server(presets.lstm_energy_spec(governor="headroom")),
        11.4,
        lambda server: server.energy_joules() > 0,
    ),
    "trace": (
        None,
        _traced_server,
        14.4,
        lambda server: len(server.trace_recorder) > REQUESTS,
    ),
}


def _tree_run():
    return (
        build_server(presets.tree_batchmaker_spec()),
        LoadGenerator(rate=1500.0, num_requests=REQUESTS, seed=42),
        TreeDataset(seed=43),
    )


def _seq2seq_run(variant):
    if variant == "dynamic":
        spec = presets.seq2seq_dynamic_spec(capacity_requests=None, memory_aware=False)
    else:
        spec = presets.seq2seq_batchmaker_spec()
    return (
        build_server(spec),
        LoadGenerator(rate=400.0, num_requests=REQUESTS, seed=42),
        Seq2SeqDataset(seed=43, dynamic=variant == "dynamic"),
    )


def _cluster_run(replicas):
    return (
        build_cluster(
            presets.lstm_cluster_spec(num_replicas=replicas, router="shortest_queue")
        ),
        LoadGenerator(
            rate=100000.0,
            num_requests=CLUSTER_REQUESTS,
            seed=42,
            arrivals="bursty",
            arrival_params={"burst_factor": 2.0, "mean_dwell": 0.002},
        ),
        FixedLengthDataset(4),
    )


def _count_calls(make_run=_lstm_run, requests=REQUESTS):
    """(calls, cells, tracked objects retained) of one seeded run; the
    server is built outside the counted region, as the ledger's timed
    region has it."""
    server, generator, dataset = make_run()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # The collector stays off while counting: a library may hang callbacks
    # on it (hypothesis does, once a @given test has run), and those are
    # calls whose number depends on what the process allocated before.
    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()
    gc.disable()
    tracked = len(gc.get_objects())
    sys.setprofile(count)
    try:
        generator.run(server, dataset)
    finally:
        sys.setprofile(previous)
        tracked = len(gc.get_objects()) - tracked
        if collecting:
            gc.enable()
    assert len(server.finished) == requests
    replicas = getattr(server, "replicas", None)
    engines = [server] if replicas is None else [r.server for r in replicas]
    cells = sum(engine.stats().nodes_processed for engine in engines)
    return calls, cells, tracked, server


def test_calls_per_cell_within_budget_and_repeatable():
    calls, cells, tracked, _ = _count_calls()
    assert cells > 5000, "the run is too small to mean anything"
    per_cell = calls / cells
    assert per_cell <= CALLS_PER_CELL_BUDGET, (
        f"{calls} calls for {cells} cells = {per_cell:.1f} per cell, "
        f"budget {CALLS_PER_CELL_BUDGET}"
    )
    assert tracked / cells <= CHAIN_TRACKED_PER_CELL_BUDGET, (
        f"{tracked} collector-tracked objects retained for {cells} cells = "
        f"{tracked / cells:.2f} per cell, budget {CHAIN_TRACKED_PER_CELL_BUDGET}"
    )
    assert _count_calls()[:3] == (calls, cells, tracked), "the counts must repeat exactly"


def test_tree_calls_and_tracked_objects_per_cell_within_budget_and_repeatable():
    calls, cells, tracked, _ = _count_calls(_tree_run)
    assert cells > 10000, "the run is too small to mean anything"
    assert calls / cells <= TREE_CALLS_PER_CELL_BUDGET, (
        f"{calls} calls for {cells} cells = {calls / cells:.1f} per cell, "
        f"budget {TREE_CALLS_PER_CELL_BUDGET}"
    )
    assert tracked / cells <= TREE_TRACKED_PER_CELL_BUDGET, (
        f"{tracked} collector-tracked objects retained for {cells} cells = "
        f"{tracked / cells:.2f} per cell, budget {TREE_TRACKED_PER_CELL_BUDGET}"
    )
    assert _count_calls(_tree_run)[:3] == (calls, cells, tracked), "the counts must repeat exactly"


@pytest.mark.parametrize("variant", sorted(SEQ2SEQ_CALLS_PER_CELL_BUDGET))
def test_seq2seq_calls_per_cell_within_budget_and_repeatable(variant):
    calls, cells, _, _ = _count_calls(lambda: _seq2seq_run(variant))
    assert cells > 10000, "the run is too small to mean anything"
    budget = SEQ2SEQ_CALLS_PER_CELL_BUDGET[variant]
    assert calls / cells <= budget, (
        f"seq2seq {variant}: {calls} calls for {cells} cells = "
        f"{calls / cells:.1f} per cell, budget {budget}"
    )
    assert _count_calls(lambda: _seq2seq_run(variant))[:2] == (calls, cells), (
        "the counts must repeat exactly"
    )


@pytest.mark.parametrize("subsystem", sorted(OPT_IN))
def test_opt_in_subsystem_is_free_when_off_and_bounded_when_on(subsystem):
    make_off, make_on, on_budget, was_on = OPT_IN[subsystem]
    if make_off is not None:
        calls, cells, _, _ = _count_calls(lambda: _lstm_run(make_off))
        assert calls / cells <= CALLS_PER_CELL_BUDGET, (
            f"{subsystem} switched off: {calls / cells:.1f} calls per cell, "
            f"the plain budget is {CALLS_PER_CELL_BUDGET}"
        )
    calls, cells, _, server = _count_calls(lambda: _lstm_run(make_on))
    assert was_on(server), f"{subsystem} was meant to be on for this run"
    assert calls / cells <= on_budget, (
        f"{subsystem} switched on: {calls} calls for {cells} cells = "
        f"{calls / cells:.1f} per cell, budget {on_budget}"
    )


def _cluster_calls_per_request(replicas):
    calls, cells, _, _ = _count_calls(lambda: _cluster_run(replicas), CLUSTER_REQUESTS)
    assert cells == 4 * CLUSTER_REQUESTS  # length-4 chains, all finished
    return calls / CLUSTER_REQUESTS


def test_cluster_calls_per_request_within_budget_and_repeatable():
    at_8 = _cluster_calls_per_request(8)
    assert at_8 <= CLUSTER_CALLS_PER_REQUEST_BUDGET, (
        f"{at_8:.1f} calls per request at 8 replicas, "
        f"budget {CLUSTER_CALLS_PER_REQUEST_BUDGET}"
    )
    assert _cluster_calls_per_request(8) == at_8, "the counts must repeat exactly"


def test_cluster_calls_per_added_replica_within_budget():
    per_replica = (_cluster_calls_per_request(64) - _cluster_calls_per_request(8)) / 56
    assert per_replica <= CLUSTER_CALLS_PER_REPLICA_BUDGET, (
        f"each replica adds {per_replica:.2f} calls per request, "
        f"budget {CLUSTER_CALLS_PER_REPLICA_BUDGET}"
    )


class CountingList(list):
    """A queue's ready list that counts what goes into it: entries, and the
    calls that grew it."""

    insertions = 0
    growths = 0

    def append(self, entry):
        self.insertions += 1
        self.growths += 1
        super().append(entry)

    def insert(self, index, entry):
        self.insertions += 1
        self.growths += 1
        super().insert(index, entry)

    def extend(self, entries):
        entries = list(entries)
        self.insertions += len(entries)
        self.growths += 1
        super().extend(entries)


def _counting_lists(server):
    """Swap every queue's ready list for a :class:`CountingList`."""
    lists = []
    for queue in server.manager.scheduler.queues:
        queue._entries = CountingList(queue._entries)
        lists.append(queue._entries)
    return lists


@pytest.mark.parametrize("make_run", [_lstm_run, _tree_run], ids=["chain", "tree"])
def test_a_pin_moves_nothing_in_the_ready_list(make_run, monkeypatch):
    """A queue lists a subgraph when its ready count rises from zero, and
    a pin is a store: on the budget runs (one GPU, optimistic, so a ready
    count never falls to zero before the subgraph is exhausted) the lists
    take exactly one entry per subgraph admitted with ready nodes — one
    per chain — against 3 035 and 6 813 index registrations while each pin
    moved its subgraph between per-worker lists (DESIGN.md §31)."""
    server, generator, dataset = make_run()
    lists = _counting_lists(server)
    admitted_ready = 0
    add = CellTypeQueue.add

    def counted_add(queue, subgraphs):
        nonlocal admitted_ready
        admitted_ready += sum(sg.ready_count > 0 for sg in subgraphs)
        add(queue, subgraphs)

    monkeypatch.setattr(CellTypeQueue, "add", counted_add)
    generator.run(server, dataset)
    assert len(server.finished) == REQUESTS
    assert all(
        queue._entries is entries
        for queue, entries in zip(server.manager.scheduler.queues, lists)
    ), "a queue replaced its list"
    insertions = sum(entries.insertions for entries in lists)
    assert insertions == admitted_ready
    if make_run is _lstm_run:
        assert insertions == REQUESTS
    else:
        assert insertions > 10 * REQUESTS, "trees admit a subgraph per leaf"


def test_a_tree_is_admitted_in_one_call(monkeypatch):
    """Admission is per request, not per leaf (DESIGN.md §34): on the tree
    budget run every arrival makes exactly one ``Scheduler.add_subgraph``
    call — all its leaves at once — and grows the leaf queue's ready list
    once, by one ``extend``.  One call per leaf before: 86 207 on a ledger
    run."""
    admitted = admission_calls = admission_growths = 0
    admitting = False
    add_request = RequestProcessor.add_request
    add_subgraph = Scheduler.add_subgraph

    def counted_add_request(processor, request):
        nonlocal admitted, admission_growths, admitting
        before = sum(entries.growths for entries in lists)
        admitting = True
        released = add_request(processor, request)
        admitting = False
        admission_growths += sum(entries.growths for entries in lists) - before
        admitted += 1
        assert len(released) == request.payload.num_leaves()
        return released

    def counted_add_subgraph(scheduler, *subgraphs):
        nonlocal admission_calls
        admission_calls += admitting
        add_subgraph(scheduler, *subgraphs)

    # Before the build: the manager hands the bound method to the processor.
    monkeypatch.setattr(RequestProcessor, "add_request", counted_add_request)
    monkeypatch.setattr(Scheduler, "add_subgraph", counted_add_subgraph)
    server, generator, dataset = _tree_run()
    lists = _counting_lists(server)
    generator.run(server, dataset)
    assert len(server.finished) == admitted == REQUESTS
    assert admission_calls == admitted
    assert admission_growths == admitted


def test_submit_tracked_objects_within_budget():
    server = _cluster_run(8)[0]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(CLUSTER_REQUESTS):
            server.submit(4, arrival_time=i * 1e-5)
        tracked = len(gc.get_objects()) - before
    finally:
        if collecting:
            gc.enable()
    assert tracked / CLUSTER_REQUESTS <= SUBMIT_TRACKED_BUDGET, (
        f"{tracked / CLUSTER_REQUESTS:.2f} collector-tracked objects per submit, "
        f"budget {SUBMIT_TRACKED_BUDGET}"
    )


def test_terminal_by_identity_agrees_with_the_state_set():
    """``InferenceRequest.terminal`` is a slot, read per completed cell
    without a call, that the one transition into a terminal state sets:
    after each ``mark_*`` it must agree with ``TERMINAL_STATES``, and a
    second terminal transition still raises."""
    marks = {
        RequestState.FINISHED: lambda request: request.mark_finished(1.0),
        RequestState.TIMED_OUT: lambda request: request.mark_timed_out(1.0),
        RequestState.REJECTED: lambda request: request.mark_rejected(1.0),
    }
    assert set(marks) == TERMINAL_STATES
    for state, mark in marks.items():
        request = InferenceRequest(0, None, 0.0)
        assert request.terminal is False and request.state not in TERMINAL_STATES
        request.mark_started(0.5)
        assert request.terminal is False and request.state not in TERMINAL_STATES
        mark(request)
        assert request.terminal is True and request.state is state
        for again in marks.values():
            with pytest.raises(RuntimeError, match="terminal state set twice"):
                again(request)
        assert request.terminal is True and request.state is state
