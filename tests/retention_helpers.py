"""Keeping what retirement drops, for tests that inspect a served request.

A terminal request no longer has a ``graph`` or ``subgraphs``: the manager
drops both right after the ``on_terminal`` hooks (DESIGN.md §24).  A test
that wants to look at them after the drain installs :class:`KeepEngineState`
with :func:`keep_engine_state`; its ``on_terminal`` hook runs before the
drop and files both by request id.  The subgraphs it keeps are the engine's
own objects, so their state after the drain is what the test reads.
"""

from __future__ import annotations

from typing import Dict, List

from repro.extension import EngineExtension


class KeepEngineState(EngineExtension):
    def __init__(self):
        self._graphs: Dict[int, object] = {}
        self._subgraphs: Dict[int, List[object]] = {}

    def on_terminal(self, request) -> None:
        self._graphs[request.request_id] = request.graph
        self._subgraphs[request.request_id] = list(request.subgraphs.values())

    def graph(self, request):
        """The request's graph at retirement (None for a request shed
        before it was unfolded)."""
        return self._graphs[request.request_id]

    def subgraphs(self, request) -> List[object]:
        """The request's subgraphs at retirement, in id order ([] for a
        request shed before it was unfolded)."""
        return self._subgraphs[request.request_id]


def keep_engine_state(server) -> KeepEngineState:
    """The :class:`KeepEngineState` on ``server``'s engine, installed on
    the first call; install before submitting."""
    for extension in server.manager.extensions:
        if isinstance(extension, KeepEngineState):
            return extension
    keep = KeepEngineState()
    server.manager.install(keep)
    return keep
