"""Every arrival kicks: the arrival path before DESIGN.md §40.

``kick_on_every_arrival(server)`` gives each engine of ``server`` (a
BatchMaker server, or every replica of a cluster without an autoscaler)
the arrival kick it had when ``Manager.submit_request`` and
``reenter_request`` armed the coalesced dispatch kick whatever the workers
held.  ``src/`` now arms it only while some alive worker has nothing in
flight; ``tests/test_arrival_kick.py`` serves the same traffic both ways
and demands the same outcomes.
"""

from __future__ import annotations

from typing import List


def engines(server) -> List:
    """The managers behind ``server``: its own, or each replica's."""
    replicas = getattr(server, "replicas", None)
    if replicas is None:
        return [server.manager]
    return [replica.manager for replica in replicas]


def kick_on_every_arrival(server):
    """Make every arrival of ``server``'s engines kick; returns the server."""
    for manager in engines(server):
        manager._kick_if_idle = manager._poke.kick
    return server
