"""Single-run driver: one (workload, topology, strategy) simulation.

:func:`simulate` is the one-line entry point: it bundles its arguments
into a :class:`~repro.scenario.Scenario` and calls
:meth:`~repro.scenario.Scenario.run`.  It accepts either constructed
objects or the registries' compact spec strings::

    simulate("fib:15", "grid:10x10", "cwn")
    simulate(Fibonacci(15), Grid(10, 10), CWN(radius=9, horizon=2))
    Scenario.from_spec("fib:15 @ grid:10x10 / cwn").run()   # equivalent
"""

from __future__ import annotations

from typing import Sequence

from ..core import Strategy
from ..oracle.config import SimConfig
from ..oracle.stats import SimResult
from ..scenario import Scenario
from ..topology import Topology
from ..workload import Program

__all__ = ["simulate"]


def simulate(
    workload: Program | str,
    topology: Topology | str,
    strategy: Strategy | str,
    config: SimConfig | None = None,
    start_pe: int = 0,
    seed: int | None = None,
    queries: int = 1,
    arrival_spacing: float = 0.0,
    arrival_pes: "Sequence[int] | None" = None,
    arrival_times: "Sequence[float] | None" = None,
) -> SimResult:
    """Run one simulation to completion and return its :class:`SimResult`.

    ``seed`` overrides ``config.seed`` as a convenience for replication
    sweeps.  The ``queries`` / ``arrival_*`` knobs expose the machine's
    open-system mode through the same narrow waist, so query-stream runs
    are ordinary scenarios to the plan/farm pipeline.
    """
    return Scenario.of(
        workload,
        topology,
        strategy,
        config=config,
        seed=seed,
        start_pe=start_pe,
        queries=queries,
        arrival_spacing=arrival_spacing,
        arrival_pes=arrival_pes,
        arrival_times=arrival_times,
    ).run()
