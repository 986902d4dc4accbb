"""Multiprocess simulation farm with a content-addressed result cache.

Every experiment here is a bag of independent runs, each a
:class:`~repro.scenario.Scenario`; this package makes such bags cheap:

* :mod:`repro.parallel.cache` — :class:`ResultCache`, an on-disk store
  addressed by ``Scenario.content_hash()`` (atomic writes,
  schema-versioned, ``REPRO_CACHE_DIR`` relocatable);
* :mod:`repro.parallel.pool` — :func:`run_many`, a ``multiprocessing``
  farm whose output is bit-identical to serial execution;
* :mod:`repro.parallel.orchestrator` — :func:`run_batch`, resumable
  batches: cache hits skipped, failures retried, every completed run
  persisted immediately.

Every experiment module routes through :func:`run_batch` via the
declarative plan spine (:mod:`repro.experiments.plan`), as do the CLI's
uniform ``--jobs`` / ``--no-cache`` flags; the pieces compose directly
too::

    from repro.parallel import ResultCache, run_batch
    from repro.scenario import Scenario

    runs = [Scenario.of("fib:15", "grid:10x10", "cwn", seed=s) for s in range(8)]
    report = run_batch(runs, jobs=4, cache=ResultCache())
    speedups = [r.speedup for r in report.results]
"""

from __future__ import annotations

from ..scenario.scenario import SPEC_SCHEMA, Scenario
from .cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    default_cache_dir,
    result_from_dict,
    result_json,
    result_to_dict,
)
from .orchestrator import BatchReport, run_batch
from .pool import FarmError, RunFailure, resolve_jobs, run_many, warm_worker

__all__ = [
    "BatchReport",
    "CACHE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "FarmError",
    "RunFailure",
    "SPEC_SCHEMA",
    "default_cache_dir",
    "resolve_jobs",
    "result_from_dict",
    "result_json",
    "result_to_dict",
    "run_batch",
    "run_many",
    "warm_worker",
]


class RunSpec:
    """Compatibility name for the frozen benchmark harness in ``perfbench/``.

    That harness cannot change, and it spells a farm run as
    ``RunSpec.from_scenario(sc)``; this class exists only so it keeps
    running.  New code passes :class:`~repro.scenario.Scenario` values.
    """

    @staticmethod
    def from_scenario(scenario: Scenario) -> Scenario:
        return scenario.spelled()
