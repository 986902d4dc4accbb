"""Statistics, tracing and process facts shared by the benchmark workloads.

Nothing here imports ``repro``: these helpers are what the self-tests
(``selftest.py``) exercise without a simulator.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from typing import Any, Callable, Iterator, Sequence

#: candidate percentiles for the tail rule, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


# -- order statistics ------------------------------------------------------------

def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (the smallest sample with at
    least ``p`` percent of the samples at or below it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """``(p, value)`` for the highest percentile in :data:`TAIL_PERCENTILES`
    that has at least :data:`MIN_BEYOND` samples beyond it.

    Falls back to the median (with fewer than ten samples beyond it)
    when the sample is too small for any tail at all.
    """
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return 50.0, percentile(samples, 50.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- open-loop schedules ---------------------------------------------------------

def poisson_schedule(rng: random.Random, rate: float, duration: float) -> list[float]:
    """Due offsets (seconds from phase start) of a Poisson arrival
    process at ``rate`` per second, truncated at ``duration``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive (got {rate})")
    due: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def open_loop_accounting(
    due: Sequence[float], sent: Sequence[float], received: Sequence[float | None]
) -> dict[str, Any]:
    """Latency from each request's *due* time, and generator lateness.

    All three sequences are absolute times on one clock, index-aligned;
    ``received[i]`` is ``None`` for a request that never got an answer.
    A stall delays every request due during it, and timing from the due
    time (not the send time) charges that wait to the system.
    """
    return {
        "latencies": [r - d for d, r in zip(due, received) if r is not None],
        "late": [s - d for d, s in zip(due, sent)],
    }


# -- tracing ---------------------------------------------------------------------

class Tracer:
    """In-memory spans ``{name, id, parent, t0, dur}`` plus call tallies.

    Spans mark coarse layer boundaries (a batch, a build, a request);
    functions called hundreds of thousands of times per run are tallied
    instead (call count and total seconds per name), which keeps the
    trace small.  Spans and tallies stay in memory until :meth:`dump`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self.tallies: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._next_id = 1

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = self.clock()
        try:
            yield sid
        finally:
            dur = self.clock() - t0
            self._stack.pop()
            self.spans.append(
                {"name": name, "id": sid, "parent": parent, "t0": t0, "dur": dur}
            )

    def record(self, name: str, t0: float, dur: float, parent: int | None = None) -> int:
        """Add a span measured elsewhere (e.g. by another process)."""
        sid = self._new_id()
        self.spans.append(
            {"name": name, "id": sid, "parent": parent, "t0": t0, "dur": dur}
        )
        return sid

    def tally(self, name: str, seconds: float, calls: int = 1) -> None:
        entry = self.tallies.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call tallied under ``name``."""
        entry = self.tallies.setdefault(name, [0, 0.0])
        clock = self.clock

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - t0

        return timed

    def calls(self, name: str) -> int:
        return int(self.tallies.get(name, (0, 0.0))[0])

    def us_per_call(self, name: str) -> float:
        calls, seconds = self.tallies.get(name, (0, 0.0))
        return seconds / calls * 1e6 if calls else 0.0

    def durations(self, name: str) -> list[float]:
        return [s["dur"] for s in self.spans if s["name"] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "tallies": self.tallies}, handle)


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    enabled = False
    _NULL = contextlib.nullcontext()

    def span(self, name: str) -> contextlib.nullcontext:
        return self._NULL


NULL_TRACER = NullTracer()


def self_times(spans: Sequence[dict[str, Any]]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover.

    Children may overlap each other (concurrent requests under one
    phase) or poke past their parent; only the union of the children's
    intervals, clipped to the parent's, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t0"] + s["dur"]))
    result: dict[int, float] = {}
    for s in spans:
        start, end = s["t0"], s["t0"] + s["dur"]
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        result[s["id"]] = s["dur"] - covered
    return result


def span_table(spans: Sequence[dict[str, Any]]) -> list[tuple[str, int, float, float]]:
    """``(name, count, total_s, self_s)`` per span name, by total desc."""
    own = self_times(spans)
    rows: dict[str, list[float]] = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["dur"]
        row[2] += own[s["id"]]
    return sorted(
        ((name, int(c), t, o) for name, (c, t, o) in rows.items()),
        key=lambda r: -r[2],
    )


# -- process facts ---------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far: this one, or
    any descendant that has been waited for (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host ran at
    that moment (recorded with each run; never used to scale a metric)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - t0


def provenance(seed: int, workload: str, seconds: int, trace: bool) -> dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
    }
