"""Request-status store: lifecycle legality, journal replay idempotence,
torn-tail tolerance, and random-interleaving properties."""

import json
import random

import pytest

from repro.serve.store import (
    ABORTED,
    FAILED,
    LEGAL_TRANSITIONS,
    PENDING,
    RUNNING,
    STATES,
    SUCCEEDED,
    TERMINAL_STATES,
    IllegalTransition,
    JournalCorrupt,
    RequestStore,
)


def _drive_to(store, rid, state):
    """Move a fresh PENDING record to ``state`` via legal steps."""
    if state == PENDING:
        return
    if state == RUNNING:
        store.transition(rid, RUNNING, 1.0)
        return
    store.transition(rid, RUNNING, 1.0)
    store.transition(rid, state, 2.0)


# -- lifecycle legality ----------------------------------------------------


@pytest.mark.parametrize("source", STATES)
@pytest.mark.parametrize("target", STATES)
def test_transition_legality_matches_relation(source, target):
    """Every (source, target) pair behaves exactly as LEGAL_TRANSITIONS
    says — in particular no terminal state ever moves again (the
    SUCCEEDED -> RUNNING resurrection the issue forbids)."""
    store = RequestStore()
    record = store.create(payload=7, now=0.0)
    _drive_to(store, record.rid, source)
    assert record.state == source
    if target in LEGAL_TRANSITIONS[source]:
        store.transition(record.rid, target, 5.0)
        assert record.state == target
    else:
        with pytest.raises(IllegalTransition):
            store.transition(record.rid, target, 5.0)
        assert record.state == source  # rejected moves change nothing


def test_terminal_states_have_no_successors():
    for state in TERMINAL_STATES:
        assert LEGAL_TRANSITIONS[state] == frozenset()


def test_unknown_rid_and_unknown_state():
    store = RequestStore()
    with pytest.raises(KeyError):
        store.transition(99, RUNNING, 0.0)
    record = store.create(payload=1, now=0.0)
    with pytest.raises(ValueError):
        store.transition(record.rid, "EXPLODED", 0.0)


def test_latency_only_for_succeeded():
    store = RequestStore()
    ok = store.create(payload=1, now=1.0)
    store.transition(ok.rid, RUNNING, 1.5)
    store.transition(ok.rid, SUCCEEDED, 3.0)
    assert ok.latency == pytest.approx(2.0)
    bad = store.create(payload=2, now=1.0)
    store.transition(bad.rid, FAILED, 2.0, reason="deadline")
    assert bad.latency is None
    assert bad.reason == "deadline"


def test_abort_non_terminal_touches_only_live_records():
    store = RequestStore()
    done = store.create(payload=0, now=0.0)
    store.transition(done.rid, RUNNING, 0.1)
    store.transition(done.rid, SUCCEEDED, 0.2)
    queued = store.create(payload=1, now=0.0)
    running = store.create(payload=2, now=0.0)
    store.transition(running.rid, RUNNING, 0.1)
    aborted = store.abort_non_terminal(1.0, reason="shutdown")
    assert {r.rid for r in aborted} == {queued.rid, running.rid}
    assert done.state == SUCCEEDED  # untouched
    assert queued.state == ABORTED and queued.reason == "shutdown"
    assert store.terminal_count() == 3


# -- journal persistence and replay ---------------------------------------


def _lifecycle(store):
    a = store.create(payload=10, now=0.0, tag="a")
    store.transition(a.rid, RUNNING, 0.5)
    store.transition(a.rid, SUCCEEDED, 1.0)
    b = store.create(payload=20, now=0.2, tag="b", deadline=0.5)
    store.transition(b.rid, RUNNING, 0.4)
    store.transition(b.rid, FAILED, 0.7, reason="deadline")
    c = store.create(payload=30, now=0.3, tag="c")
    return a, b, c


def test_journal_replay_restores_state(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    first = RequestStore(path)
    _lifecycle(first)
    first.close()

    replayed = RequestStore(path)
    assert len(replayed) == 3
    assert replayed.get(0).state == SUCCEEDED
    assert replayed.get(0).latency == pytest.approx(1.0)
    assert replayed.get(1).state == FAILED
    assert replayed.get(1).reason == "deadline"
    assert replayed.get(2).state == PENDING
    assert replayed.get(2).tag == "c"
    assert not replayed.torn_tail
    assert replayed.skipped_entries == 0
    # New rids continue after the replayed ones — no reuse.
    fresh = replayed.create(payload=40, now=2.0)
    assert fresh.rid == 3
    replayed.close()


def test_replay_is_idempotent(tmp_path):
    """Replaying the same journal any number of times converges: a
    doubled journal yields exactly the same records, with the second copy
    skipped rather than applied."""
    path = str(tmp_path / "journal.jsonl")
    store = RequestStore(path)
    _lifecycle(store)
    store.close()

    lines = [line for line in open(path, encoding="utf-8") if line.strip()]
    doubled = str(tmp_path / "doubled.jsonl")
    with open(doubled, "w", encoding="utf-8") as fh:
        fh.writelines(lines + lines)
    once, twice = RequestStore(path), RequestStore(doubled)
    assert {r: twice.get(r).state for r in twice.records} == {
        r: once.get(r).state for r in once.records
    }
    assert twice.replayed_entries == once.replayed_entries
    assert twice.skipped_entries == len(lines)
    once.close()
    twice.close()


def test_torn_final_line_is_tolerated_and_truncated(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    store = RequestStore(path)
    _lifecycle(store)
    store.close()
    with open(path, "ab") as fh:
        fh.write(b'{"op":"state","rid":2,"sta')  # crash mid-append

    recovered = RequestStore(path)
    assert recovered.torn_tail
    assert recovered.get(2).state == PENDING  # the torn entry never applied
    # The fragment was physically cut, so appends from this life cannot
    # weld onto it: a third replay must be clean.
    recovered.transition(2, ABORTED, 9.0, reason="crash_recovered")
    recovered.close()
    third = RequestStore(path)
    assert not third.torn_tail
    assert third.get(2).state == ABORTED
    third.close()


def test_malformed_mid_file_line_raises(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    store = RequestStore(path)
    _lifecycle(store)
    store.close()
    lines = open(path, "rb").read().splitlines()
    lines[1] = b'{"op": not json at all'
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    with pytest.raises(JournalCorrupt):
        RequestStore(path)


def test_replay_skips_duplicate_and_illegal_entries(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    entries = [
        {"op": "create", "rid": 0, "t": 0.0, "payload": 1},
        {"op": "create", "rid": 0, "t": 0.0, "payload": 1},  # dup
        {"op": "state", "rid": 0, "state": SUCCEEDED, "t": 1.0},
        {"op": "state", "rid": 0, "state": RUNNING, "t": 2.0},  # illegal
        {"op": "state", "rid": 5, "state": RUNNING, "t": 2.0},  # unknown
        {"op": "???", "rid": 0},  # unknown op
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(entry) + "\n" for entry in entries)
    store = RequestStore(path)
    store.close()
    assert store.get(0).state == SUCCEEDED
    assert store.replayed_entries == 2
    assert store.skipped_entries == 4


# -- property test: random interleavings ----------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_random_interleavings_replay_exactly(tmp_path, seed):
    """Drive a journal-backed store through a random interleaving of
    creates and legal/illegal transition attempts, then replay the
    journal from scratch: the replica must match the original record for
    record — and every record must have reached at most one terminal
    state along the way."""
    rng = random.Random(seed)
    path = str(tmp_path / f"journal-{seed}.jsonl")
    store = RequestStore(path)
    terminal_hits = {}
    now = 0.0
    for _ in range(300):
        now += rng.random()
        action = rng.random()
        if action < 0.3 or not store.records:
            store.create(payload=rng.randrange(100), now=now)
            continue
        rid = rng.choice(list(store.records))
        target = rng.choice(STATES)
        before = store.get(rid).state
        try:
            store.transition(rid, target, now)
        except IllegalTransition:
            assert target not in LEGAL_TRANSITIONS[before]
            continue
        except ValueError:
            continue
        assert target in LEGAL_TRANSITIONS[before]
        if target in TERMINAL_STATES:
            terminal_hits[rid] = terminal_hits.get(rid, 0) + 1
    store.close()

    assert all(count == 1 for count in terminal_hits.values())
    replica = RequestStore(path)
    assert len(replica) == len(store)
    for rid, record in store.records.items():
        copy = replica.get(rid)
        assert copy.state == record.state
        assert copy.submitted_at == record.submitted_at
        assert copy.terminal_at == record.terminal_at
    assert replica.skipped_entries == 0
    replica.close()
