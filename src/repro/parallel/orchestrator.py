"""Resumable batch execution: cache hits skipped, failures retried.

:func:`run_batch` is the farm's front door for the experiment harness:
give it a list of spelled :class:`~repro.scenario.Scenario` values and
it returns one result per scenario, in order,
having simulated only what the cache did not already hold.  Because
every completed simulation is persisted before the batch finishes, an
interrupted sweep resumes where it stopped — rerunning the same command
costs only the cells that never completed.

Transient failures (a worker killed by the OOM killer, a crashed
container) are retried up to ``retries`` times; deterministic failures
(a scenario that cannot simulate) exhaust their retries and raise — or
are reported per run with ``strict=False`` for sweeps that prefer partial
results over none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import telemetry as _telemetry
from ..oracle.stats import SimResult
from .cache import ResultCache
from ..scenario.scenario import Scenario
from .pool import FarmError, RunFailure, run_many

__all__ = ["BatchReport", "run_batch"]

#: progress callback: (completed, total, source) with source "cache"|"sim"
BatchProgressFn = Callable[[int, int, str], None]


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` call.

    ``results[i]`` corresponds to ``scenarios[i]``; with ``strict=False``
    a permanently failed run leaves ``None`` in its slot and an entry in
    ``failures``.
    """

    results: list[SimResult | None]
    hits: int
    simulated: int
    retried: int
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def misses(self) -> int:
        """Runs the cache could not answer (simulated + failed)."""
        return len(self.results) - self.hits

    def __str__(self) -> str:
        return (
            f"{len(self.results)} runs: {self.hits} cache hits, "
            f"{self.simulated} simulated ({self.retried} retried), "
            f"{len(self.failures)} failed"
        )


def run_batch(
    scenarios: Sequence[Scenario],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    retries: int = 1,
    progress: BatchProgressFn | None = None,
    strict: bool = True,
) -> BatchReport:
    """Execute ``scenarios``, reusing ``cache`` and farming misses out.

    Parameters
    ----------
    jobs:
        Worker processes for the misses.  ``None`` (and ``1``) means
        in-process serial — so passing only ``cache=`` gives cached
        serial execution, never a surprise fan-out — and ``0`` means
        all cores.
    cache:
        Result store; ``None`` disables persistence entirely.  Freshly
        simulated results are written back before the call returns, so
        a rerun of the same batch performs zero new simulations.
    use_cache:
        When false, the cache is neither read nor written (a forced
        recomputation that leaves existing entries untouched).
    retries:
        How many extra attempts a failing run gets.  Retries run with
        the same deterministic scenario — they only help against transient
        infrastructure failures, which is exactly the point: a
        deterministic simulation bug should fail loudly, not flakily.
    strict:
        On permanent failure, raise (default) or record the failure and
        leave ``None`` in that result slot.
    """
    scenarios = list(scenarios)
    total = len(scenarios)
    results: list[SimResult | None] = [None] * total
    done = 0
    tele = _telemetry.sink()
    if tele is not None:
        tele.emit("batch.start", total=total, jobs=jobs)

    def advance(source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, source)
        if tele is not None:
            tele.emit(
                "batch.progress",
                done=done,
                total=total,
                source=source,
                queue_depth=total - done,
            )

    reading = cache is not None and use_cache
    pending: list[int] = []
    hits = 0
    for i, scenario in enumerate(scenarios):
        cached = cache.get(scenario) if reading else None
        if cached is not None:
            results[i] = cached
            hits += 1
            advance("cache")
        else:
            pending.append(i)

    simulated = 0
    retried = 0
    failures: list[RunFailure] = []
    attempt = 0
    while pending:
        # Persist each completed run the moment it reaches this process
        # (not when the whole batch returns): an interrupted or crashed
        # batch keeps everything that finished, so reruns resume.
        batch = pending

        def persist(local_index: int, res: SimResult) -> None:
            if reading:
                cache.put(scenarios[batch[local_index]], res)

        if attempt == 0:
            outcome = run_many(
                [scenarios[i] for i in batch],
                jobs=jobs,
                return_errors=True,
                on_result=persist,
            )
        else:
            # Isolated retries: one run per fresh single-worker pool.
            # A run whose worker died takes the whole pool (and every
            # batch-mate's pending result) down with it, so retrying the
            # survivors alongside it would fail them forever; alone,
            # each run's fate is its own.
            outcome = []
            for pos, i in enumerate(batch):
                outcome.extend(
                    run_many(
                        [scenarios[i]],
                        jobs=1,
                        return_errors=True,
                        on_result=lambda _local, res, pos=pos: persist(pos, res),
                        isolate=True,
                    )
                )
        still_failing: list[int] = []
        last_failures: list[RunFailure] = []
        for i, res in zip(batch, outcome):
            if isinstance(res, RunFailure):
                still_failing.append(i)
                last_failures.append(res)
                continue
            results[i] = res
            simulated += 1
            if attempt > 0:
                retried += 1
            advance("sim")
        if not still_failing:
            break
        if attempt >= retries:
            failures = last_failures
            if strict:
                raise FarmError(
                    f"{len(failures)} run(s) failed after {retries + 1} "
                    "attempt(s); first failure:\n" + failures[0].error
                )
            for i in still_failing:
                advance("sim")
            break
        attempt += 1
        pending = still_failing

    report = BatchReport(
        results=results,
        hits=hits,
        simulated=simulated,
        retried=retried,
        failures=failures,
    )
    if tele is not None:
        tele.emit(
            "batch.finish",
            total=total,
            hits=hits,
            simulated=simulated,
            retried=retried,
            failures=len(failures),
        )
    return report
