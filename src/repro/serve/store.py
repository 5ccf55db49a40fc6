"""Persistent request-status store for the live serving front end.

Every request the server accepts gets a :class:`RequestRecord` with a
lifecycle ``PENDING -> RUNNING -> SUCCEEDED | FAILED | ABORTED`` (the
states mirror ``sky/api/requests``-style task stores; the simulator's
engine states map onto them at the sync boundary).  Transitions are
validated — a terminal record can never move again, so a crash/replay
cycle cannot double-terminate a request.

Crash safety is an append-only JSONL journal: one line per transition,
flushed on write.  On start the store replays the journal; replay is

* **idempotent** — replaying the same journal N times yields the same
  state (duplicate/illegal transitions are skipped and counted, never
  applied), and
* **torn-tail tolerant** — a final line cut mid-write by a crash is
  ignored (any earlier malformed line still raises: that is corruption,
  not a crash artifact).

Records that are non-terminal after replay were in flight when the
process died; :meth:`RequestStore.abort_non_terminal` moves them to
``ABORTED`` (reason ``"crash_recovered"`` on restart, ``"shutdown"``
during a graceful drain) so every accepted request reaches exactly one
terminal state even across kills.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Dict, List, Optional

PENDING = "PENDING"
RUNNING = "RUNNING"
SUCCEEDED = "SUCCEEDED"
FAILED = "FAILED"
ABORTED = "ABORTED"

STATES = (PENDING, RUNNING, SUCCEEDED, FAILED, ABORTED)
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, ABORTED})

# The full transition relation; anything absent is illegal (in particular
# terminal states have no successors: no SUCCEEDED -> RUNNING, ever).
# PENDING may jump straight to a terminal state — admission rejects and
# shutdown aborts never run.
LEGAL_TRANSITIONS = {
    PENDING: frozenset({RUNNING, SUCCEEDED, FAILED, ABORTED}),
    RUNNING: frozenset({SUCCEEDED, FAILED, ABORTED}),
    SUCCEEDED: frozenset(),
    FAILED: frozenset(),
    ABORTED: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A lifecycle move the relation forbids (e.g. out of a terminal state)."""


class JournalCorrupt(RuntimeError):
    """A malformed journal line *before* the final one — real corruption,
    not a torn tail."""


class RequestRecord:
    """One request's durable lifecycle state."""

    __slots__ = (
        "rid",
        "state",
        "payload",
        "tag",
        "deadline",
        "submitted_at",
        "started_at",
        "terminal_at",
        "reason",
        "result",
    )

    def __init__(
        self,
        rid: int,
        payload: Any,
        submitted_at: float,
        tag: Optional[str] = None,
        deadline: Optional[float] = None,
    ):
        self.rid = rid
        self.state = PENDING
        self.payload = payload
        self.tag = tag
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.terminal_at: Optional[float] = None
        self.reason: Optional[str] = None
        self.result: Optional[Any] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-terminal time for successful requests (seconds)."""
        if self.state != SUCCEEDED or self.terminal_at is None:
            return None
        return self.terminal_at - self.submitted_at

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "state": self.state,
            "tag": self.tag,
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "terminal_at": self.terminal_at,
            "reason": self.reason,
            "latency": self.latency,
        }

    def __repr__(self) -> str:
        return f"<RequestRecord {self.rid} {self.state}>"


class RequestStore:
    """In-memory record table + append-only JSONL journal.

    ``journal_path=None`` runs fully in memory (tests, benchmarks); with a
    path, every mutation appends one line and an existing journal is
    replayed before the store accepts new work.
    """

    def __init__(self, journal_path: Optional[str] = None):
        self.records: Dict[int, RequestRecord] = {}
        # Records per state, kept by ``_add`` and ``_move`` (every path
        # that creates or moves a record, replay included), so a status
        # poll reads five numbers instead of walking every record.
        self._counts: Dict[str, int] = {state: 0 for state in STATES}
        self._next_rid = 0
        # Replay diagnostics (see _apply): skipped entries are counted,
        # not applied, which is what makes replay idempotent.
        self.replayed_entries = 0
        self.skipped_entries = 0
        self.torn_tail = False
        self._fh: Optional[io.TextIOBase] = None
        if journal_path is not None:
            if os.path.exists(journal_path):
                self._replay_file(journal_path)
            parent = os.path.dirname(journal_path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(journal_path, "a", encoding="utf-8")

    # -- journal ----------------------------------------------------------

    def _append(self, entry: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        self._fh.flush()

    def _replay_file(self, path: str) -> None:
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except ValueError:
                if index == len(lines) - 1:
                    # Torn tail: the process died mid-append.  The entry
                    # it described never became visible, so dropping it is
                    # the correct recovery — and it must be physically cut
                    # before this process appends, or the next append
                    # would weld onto the fragment and turn a benign torn
                    # tail into mid-file corruption on the *next* replay.
                    self.torn_tail = True
                    keep = len(raw) - len(line)
                    if raw.endswith(b"\n"):
                        keep -= 1
                    with open(path, "r+b") as out:
                        out.truncate(keep)
                    break
                raise JournalCorrupt(
                    f"{path}:{index + 1}: malformed journal line before the tail"
                )
            self._apply(entry)

    def _apply(self, entry: Dict[str, Any]) -> None:
        """One journal entry, replay semantics: never raises on duplicate
        or illegal entries — a journal written by a crashing process may
        legitimately repeat its tail after a partial recovery — it skips
        them, so replaying a journal any number of times converges."""
        op = entry.get("op")
        if op == "create":
            rid = int(entry["rid"])
            if rid in self.records:
                self.skipped_entries += 1
                return
            record = RequestRecord(
                rid,
                entry.get("payload"),
                float(entry.get("t", 0.0)),
                tag=entry.get("tag"),
                deadline=entry.get("deadline"),
            )
            self._add(record)
            self._next_rid = max(self._next_rid, rid + 1)
            self.replayed_entries += 1
        elif op == "state":
            rid = int(entry["rid"])
            record = self.records.get(rid)
            state = entry.get("state")
            if (
                record is None
                or state not in LEGAL_TRANSITIONS
                or state not in LEGAL_TRANSITIONS[record.state]
            ):
                self.skipped_entries += 1
                return
            self._move(record, state, float(entry.get("t", 0.0)), entry.get("reason"))
            self.replayed_entries += 1
        else:
            self.skipped_entries += 1

    # -- mutations --------------------------------------------------------

    def create(
        self,
        payload: Any,
        now: float,
        tag: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> RequestRecord:
        rid = self._next_rid
        self._next_rid += 1
        record = RequestRecord(rid, payload, now, tag=tag, deadline=deadline)
        self._add(record)
        self._append(
            {
                "op": "create",
                "rid": rid,
                "t": now,
                "payload": payload,
                "tag": tag,
                "deadline": deadline,
            }
        )
        return record

    def transition(
        self,
        rid: int,
        state: str,
        now: float,
        reason: Optional[str] = None,
        result: Optional[Any] = None,
    ) -> RequestRecord:
        """Move ``rid`` to ``state`` (strict: illegal moves raise)."""
        record = self.records.get(rid)
        if record is None:
            raise KeyError(f"unknown request id {rid}")
        if state not in LEGAL_TRANSITIONS:
            raise ValueError(f"unknown state {state!r} (have: {STATES})")
        if state not in LEGAL_TRANSITIONS[record.state]:
            raise IllegalTransition(
                f"request {rid}: {record.state} -> {state} is not a legal "
                "lifecycle transition"
            )
        self._move(record, state, now, reason)
        if result is not None:
            record.result = result
        self._append(
            {"op": "state", "rid": rid, "state": state, "t": now, "reason": reason}
        )
        return record

    def _add(self, record: RequestRecord) -> None:
        self.records[record.rid] = record
        self._counts[record.state] += 1

    def _move(
        self, record: RequestRecord, state: str, now: float, reason: Optional[str]
    ) -> None:
        counts = self._counts
        counts[record.state] -= 1
        counts[state] += 1
        record.state = state
        if state == RUNNING:
            record.started_at = now
        if state in TERMINAL_STATES:
            record.terminal_at = now
            record.reason = reason

    def abort_non_terminal(self, now: float, reason: str) -> List[RequestRecord]:
        """Terminal-ise every live record (graceful drain leftovers, or
        crash recovery after replay).  Returns the aborted records."""
        aborted = []
        for record in self.records.values():
            if not record.terminal:
                self.transition(record.rid, ABORTED, now, reason=reason)
                aborted.append(record)
        return aborted

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- queries ----------------------------------------------------------

    def get(self, rid: int) -> Optional[RequestRecord]:
        return self.records.get(rid)

    def counts(self) -> Dict[str, int]:
        """Records per state (a copy; O(1) in the number of records)."""
        return dict(self._counts)

    def terminal_count(self) -> int:
        counts = self._counts
        return counts[SUCCEEDED] + counts[FAILED] + counts[ABORTED]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<RequestStore {len(self.records)} records {self.counts()}>"
