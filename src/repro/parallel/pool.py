"""The simulation farm: fan independent runs out across processes.

The simulator is single-threaded pure Python, so the only way to use a
multi-core machine is process parallelism.  :func:`run_many` executes a
list of spelled :class:`~repro.scenario.Scenario` values on a process
pool with three guarantees the experiment harness leans on:

* **determinism** — a worker does exactly what ``scenario.run()`` does
  in process: seeds travel inside the scenarios, no worker identity or
  wall clock enters the simulation, so ``run_many(scenarios, jobs=N)``
  is bit-identical to ``[sc.run() for sc in scenarios]`` for every
  ``N``;
* **ordered results** — output index ``i`` is scenario ``i``'s result,
  no matter which worker finished first (dispatch is unordered for
  throughput; reassembly restores order);
* **import-once workers** — each worker process runs
  :func:`warm_worker` at birth, importing the simulator stack a single
  time; per-task payloads are just small frozen dataclasses of strings.

Dispatch is chunked (``chunksize`` runs per IPC round-trip) because a
small-grid simulation can be shorter than a pipe round-trip.  The pool
is a ``concurrent.futures.ProcessPoolExecutor`` rather than
``multiprocessing.Pool`` deliberately: when a worker dies *without*
raising (OOM-killed, segfault, container eviction) the executor breaks
loudly (``BrokenProcessPool``) and the lost runs come back as
:class:`RunFailure` — retryable by the orchestrator — instead of the
``Pool.imap`` behavior of waiting forever for a result that will never
arrive.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.engine import SimulationError
from ..oracle.stats import SimResult
from ..scenario.scenario import Scenario

__all__ = ["FarmError", "RunFailure", "resolve_jobs", "run_many", "warm_worker"]

#: progress callback signature: (completed_count, total_count)
ProgressFn = Callable[[int, int], None]

#: streaming-result callback signature: (run_index, result)
ResultFn = Callable[[int, SimResult], None]


class FarmError(SimulationError):
    """A run failed in a worker; carries the worker's traceback text.

    Derives from the engine's :class:`~repro.oracle.engine.SimulationError`
    (a deliberately *different* class would silently slip past callers'
    existing ``except SimulationError`` handlers around ``simulate``).
    """


@dataclass(frozen=True)
class RunFailure:
    """One run's failure, as data (for ``return_errors=True`` callers)."""

    scenario: Scenario
    error: str

    def __str__(self) -> str:
        head = self.error.strip().splitlines()[-1] if self.error.strip() else "?"
        return f"{self.scenario.label()}: {head}"


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request.

    ``None`` means serial (1 — parallelism is strictly opt-in, so a
    caller reaching the farm for its cache alone does not fan out);
    ``0`` means all cores.
    """
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores, None = serial)")
    return jobs


def warm_worker() -> None:
    """Warm a worker process: import the whole simulator stack once.

    Also lights up telemetry from ``REPRO_TELEMETRY`` — under fork the
    worker inherits the parent's sink, but under spawn this is where a
    worker joins the append-only stream.  Public because every
    process-pool in the repo shares this birth ritual: the farm's
    per-batch pools here, and the serve fleet's persistent workers
    (:mod:`repro.serve.fleet`), which stay warm across batches instead
    of re-paying it per dispatch.
    """
    from ..experiments import runner  # noqa: F401  (import for side effect)

    _telemetry.init_from_env()


def _run_one(item: tuple[int, Scenario]) -> tuple[int, bool, object]:
    """Execute one scenario; never raises (errors travel home as text)."""
    index, scenario = item
    try:
        return index, True, scenario.run()
    except Exception:
        return index, False, traceback.format_exc()


def _run_chunk(
    items: list[tuple[int, Scenario]],
) -> list[tuple[int, bool, object]]:
    """Worker entry point: one IPC round-trip covers a chunk of runs."""
    return [_run_one(item) for item in items]


def _default_chunksize(n_runs: int, jobs: int) -> int:
    # ~4 chunks per worker balances scheduling slack against IPC count.
    return max(1, n_runs // (jobs * 4))


def run_many(
    scenarios: Sequence[Scenario],
    jobs: int | None = None,
    chunksize: int | None = None,
    progress: ProgressFn | None = None,
    return_errors: bool = False,
    on_result: ResultFn | None = None,
    isolate: bool = False,
    start_method: str | None = None,
) -> list[SimResult | RunFailure]:
    """Run every scenario, farmed across ``jobs`` worker processes.

    ``scenarios`` must be spelled (all parts spec strings, see
    :meth:`~repro.scenario.Scenario.spelled`) so they pickle cheaply.
    Results come back in input order.  A failing run raises
    :class:`FarmError` (first failure wins) unless
    ``return_errors`` is set, in which case its slot holds a
    :class:`RunFailure` and the other runs still complete.  A worker
    that dies without raising (OOM-killed, segfault) surfaces the same
    way — as failures of every run whose result was lost, never as a
    hang.  ``jobs=None`` (or ``1``) runs serially in this process (no
    pool, same results); ``jobs=0`` uses every core.

    ``on_result`` fires in *this* process the moment a result arrives
    (completion order, not input order) — the orchestrator's hook for
    persisting completed runs before the batch finishes, so an
    interrupted batch keeps its progress.

    ``isolate`` forces worker subprocesses even when ``jobs`` resolves
    to 1 — the orchestrator's retry mode, where a run that killed its
    worker must not get the chance to kill this process instead.

    ``start_method`` pins the multiprocessing start method (``"fork"``,
    ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform default
    (fork where available).  Results are bit-identical either way —
    the knob exists for platforms without fork and for tests exercising
    the spawn path's :func:`warm_worker` re-initialization.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    jobs = min(resolve_jobs(jobs), len(scenarios))

    out: list[SimResult | RunFailure | None] = [None] * len(scenarios)
    done = 0

    def record(index: int, ok: bool, payload: object) -> None:
        nonlocal done
        if ok:
            out[index] = payload  # a SimResult
            if on_result is not None:
                on_result(index, payload)
        elif return_errors:
            out[index] = RunFailure(scenarios[index], str(payload))
        else:
            raise FarmError(
                f"simulation of run #{index} ({scenarios[index].label()}) "
                f"failed in a worker:\n{payload}"
            )
        done += 1
        if progress is not None:
            progress(done, len(scenarios))

    if jobs <= 1 and not isolate:
        for item in enumerate(scenarios):
            record(*_run_one(item))
        return out  # type: ignore[return-value]

    # fork shares the already-imported stack with workers for free;
    # spawn (the only option on some platforms) relies on warm_worker.
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None and start_method not in methods:
        raise ValueError(
            f"start_method {start_method!r} not available here "
            f"(supported: {', '.join(methods)})"
        )
    ctx = multiprocessing.get_context(
        start_method or ("fork" if "fork" in methods else "spawn")
    )
    chunksize = chunksize or _default_chunksize(len(scenarios), jobs)
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit("farm.pool", jobs=jobs, specs=len(scenarios), chunksize=chunksize)
    indexed = list(enumerate(scenarios))
    chunks = [indexed[i : i + chunksize] for i in range(0, len(indexed), chunksize)]

    executor = ProcessPoolExecutor(
        max_workers=jobs, mp_context=ctx, initializer=warm_worker
    )
    try:
        pending = {executor.submit(_run_chunk, chunk): chunk for chunk in chunks}
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            broken = None
            for future in finished:
                chunk = pending.pop(future)
                try:
                    triples = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    triples = [
                        (index, False, f"worker process died mid-batch ({exc})")
                        for index, _scenario in chunk
                    ]
                for index, ok, payload in triples:
                    record(index, ok, payload)
            if broken is not None:
                # The pool is unusable; everything still queued is lost.
                for future, chunk in pending.items():
                    for index, _scenario in chunk:
                        record(index, False, f"worker process died mid-batch ({broken})")
                break
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return out  # type: ignore[return-value]
