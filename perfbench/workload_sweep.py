"""``sweep``: a Table-2-style grid of small scenarios, cold then warm.

Per-run overhead dominates here — pool start-up, pickling, cache
writes, scenario parse and hash, machine build — while the kernel does
moderate work per run.  The warm pass reads the cache layer the cold
pass wrote.  Each round regenerates the grid from the seed into a fresh
``ResultCache`` and runs it cold, then warm (``WARM_PASSES`` times),
through ``run_batch(jobs=2)``; rounds repeat until the time is up.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import tempfile
import time
from typing import Any

import layers
from measure import median
from outcome import Outcome

from repro.parallel import ResultCache, RunSpec, result_json, run_batch

JOBS = 2
WARM_PASSES = 5
#: set-ups timed per round (a set-up takes a few ms)
SETUP_REPEATS = 5
WORKLOADS = ("fib:8", "fib:10", "fib:11", "fib:12", "dc:1:89", "dc:1:233", "dc:1:377")
TOPOLOGIES = ("grid:2x2", "grid:3x3", "grid:4x4", "grid:5x5", "dlm:2x2x2", "dlm:2x3x3")
STRATEGIES = ("cwn", "gm", "random")
#: scenarios per cell of the grid: 7 x 6 x 3 x 2 = 252 in all
SEEDS_PER_CELL = 2


def generate_specs(seed: int) -> list[str]:
    """The full workload x topology x strategy grid, each cell with
    ``SEEDS_PER_CELL`` distinct scenario seeds drawn from ``seed``.

    Every seed gives the same cells in the same order, so the work of a
    sweep varies with the seed only as much as a scenario's own seed
    moves it; a sample of the grid would make the measured rate follow
    which sizes the seed happened to draw.
    """
    rng = random.Random(seed)
    return [
        f"{workload} @ {topology} / {strategy}?seed={s}"
        for workload in WORKLOADS
        for topology in TOPOLOGIES
        for strategy in STRATEGIES
        for s in rng.sample(range(1, 1 << 30), SEEDS_PER_CELL)
    ]


def _digest(result: Any) -> str:
    return hashlib.sha256(result_json(result).encode()).hexdigest()


def run(seed: int, seconds: float, tracer: Any, workdir: str) -> Outcome:
    out = Outcome()
    setups: list[float] = []
    cold_rates: list[float] = []
    warm_rates: list[float] = []
    cold_s: list[float] = []
    warm_s: list[float] = []
    digests: list[list[str]] = []
    specs: list[str] = []
    hits = lookups = 0
    deadline = time.perf_counter() + seconds
    while not cold_rates or time.perf_counter() < deadline:
        for k in range(SETUP_REPEATS):  # the last set-up is the one used
            t0 = time.perf_counter()
            with tracer.span("sweep.setup"):
                specs = generate_specs(seed)
                scenarios = [layers.parse(s, tracer) for s in specs]
                runspecs = [RunSpec.from_scenario(sc) for sc in scenarios]
                root = tempfile.mkdtemp(prefix="cache-", dir=workdir)
                cache = layers.instrument_cache(ResultCache(root), tracer)
            setups.append(time.perf_counter() - t0)
            if k < SETUP_REPEATS - 1:
                shutil.rmtree(root, ignore_errors=True)
        warms = []
        try:
            gc.collect()  # run_batch forks its pool
            t0 = time.perf_counter()
            with tracer.span("parallel.batch.cold"):
                cold = run_batch(runspecs, jobs=JOBS, cache=cache)
            cold_s.append(time.perf_counter() - t0)
            # The first warm pass reuses the cold pass's cache object, the
            # others open the directory afresh as a rerun of the command
            # would; both read every entry from disk (put() memoizes
            # nothing).  Several passes steady the short warm timing.
            for k in range(WARM_PASSES):
                warm_cache = cache if k == 0 else layers.instrument_cache(ResultCache(root), tracer)
                t0 = time.perf_counter()
                with tracer.span("parallel.batch.warm"):
                    warms.append(run_batch(runspecs, jobs=JOBS, cache=warm_cache))
                warm_s.append(time.perf_counter() - t0)
                hits += warm_cache.hits
                lookups += warm_cache.hits + warm_cache.misses
                warm_rates.append(len(specs) / warm_s[-1])
        finally:
            shutil.rmtree(root, ignore_errors=True)
        out.attempted += (1 + WARM_PASSES) * len(specs)
        if cold.simulated != len(specs) or cold.failures:
            out.fail(f"cold pass simulated {cold.simulated}/{len(specs)}")
        cold_digests = [_digest(r) for r in cold.results]
        for warm in warms:
            if warm.simulated != 0 or warm.hits != len(specs):
                out.fail(f"warm pass simulated {warm.simulated} (hits {warm.hits})")
            mismatched = sum(a != _digest(b) for a, b in zip(cold_digests, warm.results))
            if mismatched:
                out.fail(f"{mismatched} warm result(s) differ from the cold pass", mismatched)
        digests.append(cold_digests)
        cold_rates.append(len(specs) / cold_s[-1])

    # Output check after the timed window: every cold result equals an
    # in-process run of the same scenario.  The plain run's time feeds
    # busy_fraction; when tracing, the instrumented run must agree too.
    serial_s = 0.0
    for i, spec in enumerate(specs):
        scenario = layers.parse(spec, tracer)
        t0 = time.perf_counter()
        reference = _digest(scenario.run())
        serial_s += time.perf_counter() - t0
        wrong = sum(round_digests[i] != reference for round_digests in digests)
        if tracer.enabled:
            fresh = layers.parse(spec, tracer)
            layers.content_hash(fresh, tracer)
            wrong += _digest(layers.run_scenario(fresh, tracer)[0]) != reference
        if wrong:
            out.fail(f"{spec}: {wrong} result(s) differ from Scenario.run", wrong)

    out.metric("setup_s", median(setups), "s")
    # Throughput: scenarios per second of the cold pass; latency: how
    # long the user waits for the whole cold sweep.
    out.metric("throughput_per_s", median(cold_rates), "1/s")
    out.metric("latency_ms", median(cold_s) * 1e3, "ms")
    out.samples["cold_runs_per_s"] = cold_rates
    # Reported, not gated: single-threaded and ~20 ms a pass, the warm
    # rate swings with the host more than any bound allows (README.md).
    out.samples["warm_runs_per_s"] = median(warm_rates)
    out.samples["scenarios_per_round"] = len(specs)
    out.primary = "throughput_per_s"
    if tracer.enabled:
        cold_wall = median(cold_s)
        out.layer("parallel.batch_s.cold", cold_wall, "s")
        out.layer("parallel.batch_s.warm", median(warm_s), "s")
        out.layer("parallel.serial_run_s", serial_s, "s")
        out.layer("parallel.busy_fraction", serial_s / (JOBS * cold_wall), "ratio")
        out.cache_layers(tracer)
        out.layer("parallel.cache_lookups", lookups, "count")
        out.layer("parallel.cache_hit_rate", hits / lookups, "ratio")
        out.scenario_layers(tracer)
    return out
