"""The persistent worker fleet: spawned once, warm across batches.

The farm (:mod:`repro.parallel.pool`) builds a fresh process pool per
batch — fine for sweeps, fatal for a service, where the pool-build and
import cost would land on request latency.  :class:`WorkerFleet` spawns
its workers exactly once (each runs
:func:`repro.parallel.pool.warm_worker` at birth, importing the
simulator stack a single time) and keeps them alive across every batch
the service dispatches, so steady-state request cost is one queue hop
plus the simulation itself.

Topology: one **bounded** task queue per worker — so the dispatch
policy's placement decisions are real (a central queue would erase
them) and a slow worker exerts backpressure instead of hoarding an
unbounded backlog — and one shared result queue the service pumps.
Tasks and results are small JSON-able payloads; no live machine state
crosses the process boundary.
"""

from __future__ import annotations

import json
import multiprocessing
import queue as queue_mod
import threading
import traceback
from typing import Any

from ..parallel.cache import result_to_dict
from ..parallel.pool import warm_worker
from ..scenario import Scenario

__all__ = ["FleetResult", "WorkerFleet", "fleet_worker_main"]


#: a finished task travelling home: (task_id, worker, ok, payload)
#: payload is a result dict when ok, a traceback string when not
FleetResult = tuple[int, int, bool, Any]


def fleet_worker_main(
    worker_id: int,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
) -> None:
    """One fleet worker: loop forever, simulate, ship result dicts home.

    The loop only ends on the ``None`` sentinel.  Failures never kill
    the worker — the traceback travels home as data and the worker
    stays warm for the next task (a service must outlive a bad spec).
    Each task carries one :meth:`Scenario.to_json <repro.scenario.Scenario.to_json>`
    payload.
    """
    warm_worker()
    while True:
        item = tasks.get()
        if item is None:
            break
        task_id, scenario_json = item
        try:
            result = Scenario.from_dict(json.loads(scenario_json)).run()
            results.put((task_id, worker_id, True, result_to_dict(result)))
        except Exception:
            results.put((task_id, worker_id, False, traceback.format_exc()))


class WorkerFleet:
    """A fixed-size fleet of warm simulation workers.

    ``submit(worker, task_id, scenario_json)`` places a task on one
    worker's bounded queue (raising :class:`queue.Full` when that
    worker's backlog is at capacity — the caller's backpressure
    signal); ``next_result(timeout)`` blocks for the next completed
    task from any worker.  ``outstanding`` is the live per-worker
    in-flight count the dispatch policies read.
    """

    def __init__(
        self,
        workers: int = 2,
        queue_depth: int = 64,
        start_method: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"a fleet needs >= 1 worker (got {workers})")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1 (got {queue_depth})")
        self.workers = workers
        self.queue_depth = queue_depth
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            start_method or ("fork" if "fork" in methods else "spawn")
        )
        self._tasks: list[Any] = []
        self._results: Any = None
        self._procs: list[Any] = []
        self.outstanding: list[int] = [0] * workers
        # submit() runs on the service's loop and next_result() on its
        # result reader thread: both update outstanding under this lock.
        self._count_lock = threading.Lock()
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the workers (idempotent)."""
        if self._started:
            return
        self._results = self._ctx.Queue()
        for worker_id in range(self.workers):
            tasks = self._ctx.Queue(maxsize=self.queue_depth)
            proc = self._ctx.Process(
                target=fleet_worker_main,
                args=(worker_id, tasks, self._results),
                daemon=True,
                name=f"repro-serve-worker-{worker_id}",
            )
            proc.start()
            self._tasks.append(tasks)
            self._procs.append(proc)
        self._started = True

    def stop(self, timeout: float = 10.0) -> None:
        """Drain-stop: sentinel every worker, join, then hard-kill stragglers."""
        if not self._started:
            return
        for tasks in self._tasks:
            try:
                tasks.put_nowait(None)
            except queue_mod.Full:  # a full queue still ends: terminate below
                pass
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        # Release the queues' feeder threads so interpreter shutdown is
        # clean even when results were never fully drained.
        for tasks in self._tasks:
            tasks.cancel_join_thread()
            tasks.close()
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
        self._tasks = []
        self._procs = []
        self._results = None
        self._started = False

    def alive(self) -> list[bool]:
        """Per-worker liveness (a dead worker's tasks must be failed)."""
        return [proc.is_alive() for proc in self._procs]

    # -- work --------------------------------------------------------------------

    def submit(self, worker: int, task_id: int, scenario_json: str) -> None:
        """Queue one task on ``worker``; :class:`queue.Full` = backpressure."""
        if not self._started:
            raise RuntimeError("fleet not started")
        # Counted before the put: the result may be read before put
        # returns, and its decrement must find the task counted.
        with self._count_lock:
            self.outstanding[worker] += 1
        try:
            self._tasks[worker].put_nowait((task_id, scenario_json))
        except queue_mod.Full:
            with self._count_lock:
                self.outstanding[worker] -= 1
            raise

    def next_result(self, timeout: float | None = None) -> FleetResult | None:
        """The next completed task from any worker, or ``None`` on timeout.

        Blocking — the service calls this from its result reader thread,
        never from the event loop itself.
        """
        if not self._started:
            raise RuntimeError("fleet not started")
        try:
            task_id, worker, ok, payload = self._results.get(timeout=timeout)
        except queue_mod.Empty:
            return None
        with self._count_lock:
            if self.outstanding[worker] > 0:
                self.outstanding[worker] -= 1
        return task_id, worker, ok, payload

    @property
    def total_outstanding(self) -> int:
        return sum(self.outstanding)

    def fail_dead_workers(self) -> list[int]:
        """Indices of dead workers, their outstanding counts zeroed.

        The service calls this when the result pump idles suspiciously;
        the caller owns failing the affected requests (the fleet does
        not know task ids once they are on a queue).
        """
        dead = [i for i, ok in enumerate(self.alive()) if not ok]
        with self._count_lock:
            for i in dead:
                self.outstanding[i] = 0
        return dead

    # -- context manager sugar ---------------------------------------------------

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
