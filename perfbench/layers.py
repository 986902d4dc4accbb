"""Per-layer measurement from outside: timed calls into public functions.

Every probe here calls the simulator's public API and times it; nothing
under ``src/`` is modified.  With a :class:`~measure.NullTracer` the
scenario path is the plain ``Scenario.run()`` a user would call.
"""

from __future__ import annotations

import gc
import io
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Any

from measure import median

from repro.core.base import Strategy
from repro.obs import telemetry
from repro.oracle.engine import Engine
from repro.parallel import ResultCache, RunSpec, result_json
from repro.pdes import run_sharded
from repro.scenario import Scenario
from repro.serve.fleet import WorkerFleet

#: strategy hooks the machine calls; only overridden ones get wrapped, so
#: the machine's elision of the base no-ops still applies when traced
HOOKS = ("on_goal_created", "on_goal_message", "on_word", "on_idle", "on_load_changed")

#: which end-to-end metric (on which workload) each per-layer metric
#: should move, by name prefix; printed beside the traced run's numbers.
#: Metrics past ``trace.`` are reported by one workload only, in the
#: provenance line; the rest are in every traced result.
MOVES = {
    "scenario.parse_us": "throughput_per_s on sweep, latency_ms on serve",
    "scenario.hash_us": "throughput_per_s on sweep, latency_ms on serve",
    "scenario.build_ms": "setup_s and latency_ms on large, throughput_per_s on sweep",
    "topology.construct_ms": "setup_s and latency_ms on large, throughput_per_s on sweep",
    "oracle.": "throughput_per_s and latency_ms on large",
    "core.on_word": "throughput_per_s on sweep (gm overrides it; large runs cwn)",
    "core.": "throughput_per_s and latency_ms on large",
    "parallel.cache_get_us": "throughput_per_s on sweep (the warm rate in provenance)",
    "parallel.cache_put_us": "throughput_per_s on sweep",
    "serve.fleet_rtt_ms": "latency_ms on serve",
    "trace.overhead_pct": "the cost of tracing itself",
    "parallel.batch_s.cold": "throughput_per_s and latency_ms on sweep",
    "parallel.batch_s.warm": "the warm rate on sweep (provenance, not gated)",
    "parallel.serial_run_s": "throughput_per_s on sweep",
    "parallel.busy_fraction": "throughput_per_s on sweep",
    "parallel.cache_": "the warm rate on sweep (provenance, not gated)",
    "pdes.": "the sharded rate on large (provenance, not gated)",
    "serve.front_ms": "latency_ms on serve",
    "serve.hit_ms": "latency_ms on serve",
    "serve.compute_ms": "throughput_per_s on serve",
    "serve.source.": "throughput_per_s on serve",
    "serve.answered": "throughput_per_s on serve",
    "serve.dedup_ratio": "throughput_per_s on serve",
    "serve.batches": "latency_ms and throughput_per_s on serve",
    "serve.mean_batch": "latency_ms and throughput_per_s on serve",
    "serve.rejected.": "failed operations on serve",
    "serve.generator_late_ms": "validity of the serve run",
}


def moves(metric: str) -> str:
    """The end-to-end metric and workload ``metric`` should move."""
    return next((v for k, v in MOVES.items() if metric.startswith(k)), "")


def parse(spec: str, tracer: Any) -> Scenario:
    with tracer.span("scenario.parse"):
        return Scenario.from_spec(spec)


def content_hash(scenario: Scenario, tracer: Any) -> str:
    with tracer.span("scenario.hash"):
        return scenario.content_hash()


def run_scenario(scenario: Scenario, tracer: Any) -> tuple[Any, float, float]:
    """``scenario.run()`` as ``(result, build_s, run_s)``; when tracing,
    the build is split into its layers and the hot calls are tallied."""
    t0 = time.perf_counter()
    if not tracer.enabled:
        machine = scenario.build()
    else:
        with tracer.span("scenario.build"):
            with tracer.span("topology.construct"):
                topology = scenario.resolve_topology()
            strategy = scenario.resolve_strategy(family=topology.family)
            for hook in HOOKS:
                if getattr(type(strategy), hook) is not getattr(Strategy, hook):
                    setattr(strategy, hook, tracer.wrap(f"core.{hook}", getattr(strategy, hook)))
            machine = replace(scenario, topology=topology, strategy=strategy).build()
        machine.known_loads_of = tracer.wrap("oracle.known_loads_of", machine.known_loads_of)
    t1 = time.perf_counter()
    with tracer.span("oracle.run"):
        result = machine.run()
    t2 = time.perf_counter()
    if tracer.enabled:
        tracer.tally("oracle.events", 0.0, result.events_executed)
    return result, t1 - t0, t2 - t1


def run_sharded_traced(scenario: Scenario, shards: int, tracer: Any) -> tuple[Any, dict[str, float]]:
    """``run_sharded`` plus the window statistics of its telemetry.

    The coordinator's ``shard.window`` / ``shard.sync`` / ``shard.finish``
    records are captured in memory only while tracing.
    """
    if not tracer.enabled:
        return run_sharded(scenario, shards), {}
    buffer = io.StringIO()
    with telemetry.capture(buffer):
        with tracer.span("pdes.run_sharded"):
            result = run_sharded(scenario, shards)
    return result, pdes_summary(telemetry.read_events(buffer))


def pdes_summary(events: list[dict[str, Any]]) -> dict[str, float]:
    """Window count, events per window and the share of the sharded
    run's wall time spent waiting at window barriers."""
    windows = [e for e in events if e.get("ev") == "shard.window"]
    sync_ms = sum(e["wall_ms"] for e in events if e.get("ev") == "shard.sync")
    finish = [e for e in events if e.get("ev") == "shard.finish"]
    if not finish:
        raise RuntimeError("sharded run emitted no shard.finish record")
    wall_s = finish[-1]["wall_s"]
    return {
        "windows": float(len(windows)),
        "events_per_window": finish[-1]["events"] / max(1, len(windows)),
        "barrier_fraction": sync_ms / 1e3 / wall_s if wall_s > 0 else 0.0,
    }


def instrument_cache(cache: ResultCache, tracer: Any) -> ResultCache:
    """Tally ``get``/``put`` on this one cache instance."""
    if tracer.enabled:
        cache.get = tracer.wrap("parallel.cache_get", cache.get)  # type: ignore[method-assign]
        cache.put = tracer.wrap("parallel.cache_put", cache.put)  # type: ignore[method-assign]
    return cache


def cache_probe(pairs: list[tuple[RunSpec, Any]], workdir: str, tracer: Any) -> int:
    """Store each ``(spec, result)`` in a fresh ``ResultCache`` and read
    it back through a second cache object over the same directory, so
    every ``get`` reads the disk as a rerun would.  The calls are tallied
    as the sweep's in-batch ones are; returns how many read back wrong."""
    root = tempfile.mkdtemp(prefix="cache-probe-", dir=workdir)
    try:
        writer = instrument_cache(ResultCache(root), tracer)
        for spec, result in pairs:
            writer.put(spec, result)
        reader = instrument_cache(ResultCache(root), tracer)
        return sum(
            (found := reader.get(spec)) is None or result_json(found) != result_json(result)
            for spec, result in pairs
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def calendar_us_per_event(count: int = 100_000) -> float:
    """Engine schedule-and-fire cost of a no-op event (µs), best of 3.

    Separates the calendar from the handlers: a kernel change that
    moves ``oracle.us_per_event`` but not this moved the handlers.
    """
    best = float("inf")
    for _ in range(3):
        engine = Engine()

        def noop(_payload: Any) -> None:
            return None

        t0 = time.perf_counter()
        for i in range(count):
            engine.schedule(float(i % 97), noop)
        engine.run()
        dt = time.perf_counter() - t0
        best = min(best, dt / engine.events_executed * 1e6)
    return best


def fleet_rtt_ms(trips: int = 60) -> float:
    """Median submit → ``next_result`` round trip of a warm two-worker
    fleet on a trivial scenario (ms): the fleet's own queue hops."""
    spec_json = RunSpec.from_scenario(Scenario.from_spec("fib:2 @ grid:2x2 / cwn?seed=1")).to_json()
    gc.collect()
    fleet = WorkerFleet(workers=2, queue_depth=4)
    rtts: list[float] = []
    try:
        fleet.start()
        for i in range(trips + 4):
            t0 = time.perf_counter()
            fleet.submit(i % 2, i, spec_json)
            item = fleet.next_result(timeout=10.0)
            if item is None:
                raise RuntimeError("fleet probe: no answer within 10 s")
            if not item[2]:
                raise RuntimeError(f"fleet probe task failed:\n{item[3]}")
            if i >= 4:  # the first trips pay each worker's warm-up
                rtts.append((time.perf_counter() - t0) * 1e3)
    finally:
        fleet.stop(timeout=5.0)
    return median(rtts)
