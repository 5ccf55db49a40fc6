"""Retirement by reference count (DESIGN.md §24): a request's engine state
dies the moment the request turns terminal.

Each row of the tier-1 corpus slice (``tests.golden``) runs with the cyclic
collector off.  The slice covers chains, trees, static and dynamic Seq2Seq,
clusters that lose replicas, memory evict-and-restart, and faults,
deadlines and shedding.  Beam search runs the same way below.  After the
drain:

1. a weakref taken to every unfolded graph, and to the first and last
   subgraph of each, while its request was live is dead — freed by
   reference count, with no collection run;
2. a collection under ``DEBUG_SAVEALL`` finds no object whose class is
   defined in ``repro``: nothing the run made waits for the collector;
3. a request cancelled while it still had nodes in flight, whose
   subgraphs its task still held at retirement, is released once that task
   retires, and the memory extension's books telescope to zero.

``-m golden_full`` sweeps the rest of the matrix the same way.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.core.request_processor import RequestProcessor
from repro.gpu.memory import MemorySpec
from repro.models import LSTMChainModel
from repro.models.beam_seq2seq import BeamSeq2SeqModel
from tests import golden

ROWS = golden.matrix()
TIER1 = [name for name, row in ROWS.items() if row.tier1]
FULL = [name for name, row in ROWS.items() if not row.tier1]
SEED = golden.SEEDS[0]


class Witness:
    """Weakrefs into every engine's state, taken through the processor:
    ``live`` at each unfold (a restarted request unfolds again), and
    ``in_flight`` at each retirement of a request whose task still holds
    some of its subgraphs."""

    def __init__(self, monkeypatch):
        self.live = []
        self.in_flight = []
        add, forget = RequestProcessor.add_request, RequestProcessor.forget

        def add_request(processor, request):
            released = add(processor, request)
            subgraphs = list(request.subgraphs.values())
            self.live += [
                weakref.ref(request.graph),
                weakref.ref(subgraphs[0]),
                weakref.ref(subgraphs[-1]),
            ]
            return released

        def forget_request(processor, request):
            if request.terminal:
                self.in_flight += [
                    weakref.ref(sg) for sg in request.subgraphs.values() if sg.inflight
                ]
            forget(processor, request)

        monkeypatch.setattr(RequestProcessor, "add_request", add_request)
        monkeypatch.setattr(RequestProcessor, "forget", forget_request)


def serve_without_collector(run, witness):
    """``run()`` with the collector off; checks 1 and 2 on what it left.
    Returns its server, still alive: a server is itself a cycle."""
    gc.collect()
    gc.disable()
    try:
        server = run()
        alive = sum(ref() is not None for ref in witness.live)
        assert witness.live and not alive, (
            f"{alive} of {len(witness.live)} graphs / subgraphs outlived the drain"
        )
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            cyclic = Counter(
                type(obj).__qualname__
                for obj in gc.garbage
                if type(obj).__module__.split(".")[0] == "repro"
            )
        finally:
            gc.garbage.clear()
            gc.set_debug(flags)
    finally:
        gc.enable()
    assert not cyclic, f"left for the collector: {dict(cyclic)}"
    return server


def engines(server):
    replicas = getattr(server, "replicas", None)
    return [server] if replicas is None else [r.server for r in replicas]


def assert_memory_telescopes(server):
    for engine in engines(server):
        for worker in engine.manager.workers:
            mem = worker.device.memory
            if mem is not None and worker.alive:
                assert mem.state_reserved == 0 and mem.live_requests() == 0


def check_row(name, monkeypatch):
    witness = Witness(monkeypatch)
    server = serve_without_collector(lambda: golden.run(ROWS[name], SEED), witness)
    assert not any(ref() is not None for ref in witness.in_flight)
    assert_memory_telescopes(server)
    return witness


@pytest.mark.parametrize("name", TIER1)
def test_tier1_row_retires_by_reference_count(name, monkeypatch):
    check_row(name, monkeypatch)


@pytest.mark.golden_full
@pytest.mark.parametrize("name", FULL)
def test_full_row_retires_by_reference_count(name, monkeypatch):
    check_row(name, monkeypatch)


@pytest.mark.parametrize(
    "name", ["memory/oblivious", "storm/total_loss", "cluster/sla+autoscaler+loss"]
)
def test_rows_cancel_requests_with_nodes_in_flight(name, monkeypatch):
    """Check 3 is not vacuous: these rows cancel requests whose task is
    still running (an OOM at launch, a lost device, a deadline)."""
    assert check_row(name, monkeypatch).in_flight


def test_cancelled_in_flight_request_is_released_when_its_task_retires(monkeypatch):
    """A deadline fires while the request's only task runs: the task keeps
    its subgraph (and the graph behind it) to its retire time, not longer.
    The memory model held state for it throughout, and gives it all back."""
    witness = Witness(monkeypatch)
    server = BatchMakerServer(
        LSTMChainModel(), memory=MemorySpec(capacity=1 << 30, state_bytes=1 << 20)
    )
    request = server.submit(5, arrival_time=0.0, deadline=1e-6)
    gc.collect()
    gc.disable()
    try:
        while not request.terminal:
            assert server.loop.run(max_events=1)
        assert request.cancel_reason == "deadline"
        (held,) = witness.in_flight
        assert held() is not None, "the running task holds the subgraph"
        assert request.graph is None and request.subgraphs == {}
        server.drain()
        assert held() is None
        assert not any(ref() is not None for ref in witness.live)
    finally:
        gc.enable()
    assert_memory_telescopes(server)
    assert server.manager.workers[0].device.memory.peak_reserved > 0


@pytest.mark.parametrize("real", [False, True])
def test_beam_search_retires_by_reference_count(real, monkeypatch):
    """Beam decoding grows its graph by selection results; what retirement
    leaves is the request record and, with real compute, its result."""
    model = BeamSeq2SeqModel(
        hidden_dim=8, src_vocab_size=20, tgt_vocab_size=20, embed_dim=4,
        beam_width=3, real=real, seed=5,
    )
    rng = np.random.default_rng(2)
    payloads = [
        {"src": [int(t) for t in rng.integers(3, 20, size=3)], "max_steps": 5}
        for _ in range(8)
    ]

    requests = []

    def run():
        server = BatchMakerServer(
            model, config=BatchingConfig.with_max_batch(16), real_compute=real
        )
        for i, payload in enumerate(payloads):
            requests.append(server.submit(payload, arrival_time=i * 1e-4))
        server.drain()
        return server

    server = serve_without_collector(run, Witness(monkeypatch))
    assert len(server.finished) == len(payloads)
    for request, payload in zip(requests, payloads):
        assert request.graph is None and request.subgraphs == {}
        if real:
            assert BeamSeq2SeqModel.decode_best(request) == model.reference_forward(
                payload
            )
