"""The per-request energy split, kept as the oracle for the active-joule books.

Until DESIGN.md §28 ``EnergyModel.charge_task`` took the task's member
request ids beside its duration and split the joules evenly across them,
keeping a per-request dict, an attributed total, an unattributed bucket
(for a memberless charge) and a task count next to ``active_joules``.  No
code in ``src/`` read any of them, yet the worker built the id list for
every task of an energy run.  :class:`EnergyAttribution` books the same
split from the engine's hooks, so the energy suites hold ``active_joules``
to a second, independent sum: per device, attributed + unattributed
telescopes to the active total.
"""

from typing import Dict, List, Tuple

from repro.extension import EngineExtension


class DeviceBooks:
    """One device's split, as ``EnergyModel`` kept it before §28."""

    def __init__(self):
        self.per_request: Dict[int, float] = {}
        self.attributed = 0.0
        self.unattributed = 0.0
        self.tasks_charged = 0

    def book(self, joules: float, request_ids: List[int]) -> None:
        """One share per listed id (a request with two subgraphs in the
        batch gets two); a memberless charge is unattributed."""
        self.tasks_charged += 1
        if request_ids:
            share = joules / len(request_ids)
            per_request = self.per_request
            for request_id in request_ids:
                per_request[request_id] = per_request.get(request_id, 0.0) + share
            self.attributed += joules
        else:
            self.unattributed += joules


class EnergyAttribution(EngineExtension):
    """Books every executed kernel of an energy-modelled engine.

    Installed after ``EnergyAccounting`` (see :func:`install`), so
    ``on_task_submit`` reads the device's dynamic watts after the governor
    has picked this batch's frequency — the watts the worker charges at.
    The member ids are read when the execution retires: ``task.entries``
    then holds exactly what the worker launched (a retry's extensions may
    cancel members after ``on_task_submit``).  A device loss drops that
    device's books and its in-flight executions, as ``EnergyModel.reset``
    drops the active joules.
    """

    def attach(self, engine) -> None:
        self.books: Dict[int, DeviceBooks] = {w.worker_id: DeviceBooks() for w in engine.workers}
        # task id -> (worker id, dynamic watts) of its current execution
        self._launched: Dict[int, Tuple[int, float]] = {}

    def on_task_submit(self, task, worker) -> None:
        self._launched[task.task_id] = (worker.worker_id, worker.device.energy.dynamic_watts)

    def on_task_done(self, task) -> None:
        self._book(task)

    def on_task_failed(self, task, reason, retry_delay) -> None:
        self._book(task)

    def on_device_lost(self, worker) -> None:
        worker_id = worker.worker_id
        self.books[worker_id] = DeviceBooks()
        self._launched = {
            task_id: launched
            for task_id, launched in self._launched.items()
            if launched[0] != worker_id
        }

    def _book(self, task) -> None:
        launched = self._launched.pop(task.task_id, None)
        if launched is None:  # was in flight on a device that died
            return
        worker_id, watts = launched
        self.books[worker_id].book(
            task.duration * watts, [sg.request.request_id for sg in task.subgraphs()]
        )


def install(server) -> EnergyAttribution:
    """Put the oracle behind ``server``'s engine (after its extensions)."""
    oracle = EnergyAttribution()
    server.manager.install(oracle)
    return oracle
