"""Real compute under kernel faults: a fault withholds a task's completion
signal, not its place on the device stream (DESIGN.md §27).

With pinning, a subgraph's next step is handed out optimistically — to a
later task on the same stream — the moment this step is submitted.  The
worker therefore runs the NumPy kernel at submission whatever the fault
draw: the optimistic successor gathers from it, and the retry recomputes
the same rows.  Every run here must produce exactly the fault-free results.

The dynamic Seq2Seq and beam rows grow their graphs in ``Model.extend``,
which reads a completed decoder's (or select's) output rows by node id: a
retried task must leave those rows as the fault-free run has them.
"""

import numpy as np
import pytest

from repro.core import BatchMakerServer, BatchingConfig
from repro.faults import FaultPlan, KERNEL_FAIL, RetryPolicy, SLAConfig, TaskFault
from repro.models import BeamSeq2SeqModel, LSTMChainModel, Seq2SeqModel, TreeLSTMModel
from repro.workload import FixedLengthDataset
from repro.workload.arrivals import PoissonArrivals
from repro.workload.trees import random_parse_tree
from tests.chaos_helpers import assert_invariants, chaos_seeds

SEEDS = chaos_seeds()
NUM_REQUESTS = 40


def _results(server, payloads, rate=3000.0):
    """Serve ``payloads`` at a fixed-seed Poisson rate; every request must
    finish.  Returns the results, in submission order, as plain arrays."""
    arrivals = PoissonArrivals(rate, seed=11).times(len(payloads))
    requests = [
        server.submit(payload, arrival_time=when)
        for payload, when in zip(payloads, arrivals)
    ]
    server.drain()
    assert_invariants(server, requests)
    assert len(server.finished) == len(payloads), "a request did not finish"
    return [[np.asarray(value) for value in request.result] for request in requests]


def _serve(make_model, payloads, max_batch, fault_plan=None, num_gpus=2):
    server = BatchMakerServer(
        make_model(),
        config=BatchingConfig.with_max_batch(max_batch),
        num_gpus=num_gpus,
        real_compute=True,
        fault_plan=fault_plan,
        # Retries enough that no request runs out of them: every one must
        # finish, so that its result can be compared.
        sla=SLAConfig(retry=RetryPolicy(max_retries=12)),
    )
    return _results(server, payloads), server


def _chain_payloads(rng):
    return [
        [int(t) for t in rng.integers(0, 50, size=rng.integers(1, 14))]
        for _ in range(NUM_REQUESTS)
    ]


def _seq2seq_payloads(rng):
    return [
        {
            "src": [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))],
            "tgt_len": int(rng.integers(1, 7)),
        }
        for _ in range(NUM_REQUESTS)
    ]


def _dynamic_seq2seq_payloads(rng):
    return [
        {
            "src": [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))],
            "dynamic": True,
            "max_decode": int(rng.integers(1, 9)),
        }
        for _ in range(NUM_REQUESTS)
    ]


def _beam_payloads(rng):
    return [
        {
            "src": [int(t) for t in rng.integers(0, 40, size=rng.integers(1, 9))],
            "max_steps": int(rng.integers(1, 9)),
        }
        for _ in range(NUM_REQUESTS)
    ]


def _tree_payloads(rng):
    return [
        random_parse_tree(rng, int(rng.integers(1, 12)), 50) for _ in range(NUM_REQUESTS)
    ]


MODELS = {
    "lstm_chain": (
        lambda: LSTMChainModel(
            hidden_dim=8, vocab_size=50, embed_dim=8, real=True, project_output=True, seed=5
        ),
        _chain_payloads,
        4,
    ),
    "seq2seq": (
        lambda: Seq2SeqModel(
            hidden_dim=8, src_vocab_size=40, tgt_vocab_size=40, embed_dim=8, real=True, seed=5
        ),
        _seq2seq_payloads,
        4,
    ),
    "seq2seq_dynamic": (
        lambda: Seq2SeqModel(
            hidden_dim=8, src_vocab_size=40, tgt_vocab_size=40, embed_dim=8, real=True, seed=5
        ),
        _dynamic_seq2seq_payloads,
        4,
    ),
    "beam_seq2seq": (
        lambda: BeamSeq2SeqModel(
            hidden_dim=8, src_vocab_size=40, tgt_vocab_size=40, embed_dim=8, real=True, seed=5
        ),
        _beam_payloads,
        4,
    ),
    "tree_lstm": (
        lambda: TreeLSTMModel(hidden_dim=8, vocab_size=50, embed_dim=8, real=True, seed=5),
        _tree_payloads,
        8,
    ),
}


def test_one_kernel_fault_before_an_optimistic_successor():
    """Task 0 holds step 0 of every chain and fails once; the step-1 tasks
    were already handed out behind it on the same stream and gather from
    it.  Before the fix this raised ``depends on unexecuted node 0``."""
    def make_model():
        return LSTMChainModel(hidden_dim=8, vocab_size=50, real=True)

    payloads = [FixedLengthDataset(5).sample_one() for _ in range(4)]
    clean, _ = _serve(make_model, payloads, max_batch=4, num_gpus=1)
    plan = FaultPlan(task_overrides={(0, 0): TaskFault(KERNEL_FAIL)})
    faulted, server = _serve(make_model, payloads, max_batch=4, fault_plan=plan, num_gpus=1)
    assert server.fault_counters().tasks_failed == 1
    for got, want in zip(faulted, clean):
        np.testing.assert_array_equal(got, want)
    model = make_model()
    for got, payload in zip(faulted, payloads):
        np.testing.assert_array_equal(got[0], np.asarray(model.reference_forward(payload)[0]))


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_results_under_kernel_faults_and_stragglers_equal_the_fault_free_run(name, seed):
    make_model, make_payloads, max_batch = MODELS[name]
    payloads = make_payloads(np.random.default_rng(seed))
    clean, _ = _serve(make_model, payloads, max_batch)
    plan = FaultPlan(
        seed=seed, kernel_failure_rate=0.1, straggler_rate=0.1, straggler_multiplier=8.0
    )
    faulted, server = _serve(make_model, payloads, max_batch, fault_plan=plan)
    counters = server.fault_counters()
    assert counters.kernel_failures_injected > 0 and counters.stragglers_injected > 0
    for got, want in zip(faulted, clean):
        assert len(got) == len(want)
        for got_value, want_value in zip(got, want):
            np.testing.assert_array_equal(got_value, want_value)
