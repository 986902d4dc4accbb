"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from layers import HOOKS
from measure import median


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: provenance: the samples behind the reported numbers
    samples: dict[str, Any] = field(default_factory=dict)
    #: the end-to-end metric the tracing overhead is quoted on
    primary: str = ""
    problems: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def fail(self, problem: str, count: int = 1) -> None:
        """Record ``count`` failed operations; they are never dropped."""
        self.failed += count
        self.problems.append(problem)
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)

    def cache_layers(self, tracer: Any) -> None:
        """``ResultCache.get``/``put`` cost of the calls tallied on
        caches that ``layers.instrument_cache`` wrapped."""
        self.layer("parallel.cache_get_us", tracer.us_per_call("parallel.cache_get"), "us")
        self.layer("parallel.cache_put_us", tracer.us_per_call("parallel.cache_put"), "us")

    def scenario_layers(self, tracer: Any, passes: int = 1) -> None:
        """The scenario/topology/oracle/core layers of every
        ``layers.run_scenario`` call this run made while tracing;
        ``passes`` is how many times the workload's scenario set ran,
        so ``oracle.events`` is an exact per-pass count."""
        def mean_of(name: str) -> float:
            durations = tracer.durations(name)
            return sum(durations) / len(durations) if durations else 0.0

        events = tracer.calls("oracle.events")
        runs = tracer.durations("oracle.run")
        self.layer("scenario.parse_us", median(tracer.durations("scenario.parse")) * 1e6, "us")
        self.layer("scenario.hash_us", median(tracer.durations("scenario.hash")) * 1e6, "us")
        self.layer("scenario.build_ms", mean_of("scenario.build") * 1e3, "ms")
        self.layer("topology.construct_ms", mean_of("topology.construct") * 1e3, "ms")
        self.layer("oracle.run_s", sum(runs) / len(runs), "s")
        self.layer("oracle.events", events // passes, "count")
        self.layer("oracle.us_per_event", sum(runs) / events * 1e6, "us")
        self.layer("oracle.known_loads_of.calls", tracer.calls("oracle.known_loads_of") // passes, "count")
        self.layer("oracle.known_loads_of.us", tracer.us_per_call("oracle.known_loads_of"), "us")
        for hook in HOOKS:  # only hooks some strategy here overrides
            if tracer.calls(f"core.{hook}"):
                self.layer(f"core.{hook}.calls", tracer.calls(f"core.{hook}") // passes, "count")
                self.layer(f"core.{hook}.us", tracer.us_per_call(f"core.{hook}"), "us")
