"""Large-machine scalability — the conjecture an order of magnitude up.

The paper's evaluation stops at 400 PEs; its central conjecture is
about machines bigger than that.  This bench drives the O(N) machine
representation (closed-form routing, sparse load beliefs) into the
1024-4096-PE regime:

* machine *construction* must stay interactive — a 64x64 torus and a
  4096-PE hypercube must wire up in well under a second (the tabulated
  O(N^2) representation took ~6 s and >100 MB for the grid alone);
* CWN / ACWN / GM run the scaling workload on 1024-PE grids, tori and
  hypercubes (2048 and 4096 PEs at ``REPRO_FULL=1``), and CWN's edge
  over GM must hold in the large-diameter regime the paper could only
  conjecture about.
"""

from __future__ import annotations

import time

from repro.experiments.large_machines import (
    render_large_machines,
    run_large_machines,
)
from repro.experiments.scale import full_scale
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.topology import Grid, Hypercube, make
from repro.workload import Fibonacci


#: wall-clock budget for wiring one 4096-PE machine (topology + PEs +
#: channels + strategy binding) — the acceptance bar, with CI headroom
CONSTRUCTION_BUDGET_S = 1.0


def _wire_machine(topology) -> float:
    from repro.core import paper_cwn

    start = time.perf_counter()
    Machine(topology, Fibonacci(10), paper_cwn(topology.family), SimConfig(seed=1))
    return time.perf_counter() - start


def test_large_machine_construction_budget(benchmark, save_artifact):
    def build_all():
        return {
            "grid 64x64": _wire_machine(Grid(64, 64)),
            "hypercube 12": _wire_machine(Hypercube(12)),
            "torus3d 16x16x16": _wire_machine(make("torus3d:16x16x16")),
        }

    timings = benchmark.pedantic(build_all, rounds=1, iterations=1)
    lines = [
        f"{name:18s} {seconds * 1000:8.1f} ms" for name, seconds in timings.items()
    ]
    save_artifact("large_machine_construction", "\n".join(lines))
    for name, seconds in timings.items():
        assert seconds < CONSTRUCTION_BUDGET_S, (name, seconds)


def test_large_machine_conjecture(benchmark, save_artifact):
    points = benchmark.pedantic(
        lambda: run_large_machines(full=full_scale(), seed=1), rounds=1, iterations=1
    )
    save_artifact("large_machines", render_large_machines(points))

    by_machine: dict[tuple[str, int], dict[str, float]] = {}
    for p in points:
        by_machine.setdefault((p.family, p.n_pes), {})[p.strategy] = p.speedup
    assert len(by_machine) >= 3  # grid, torus3d, hypercube at >= 1024 PEs

    for (family, n_pes), speedups in by_machine.items():
        # The conjecture, in the regime it was made about: CWN beats GM
        # on every large machine.
        assert speedups["cwn"] > speedups["gm"], (family, n_pes, speedups)
        # ACWN's saturation control must not forfeit CWN's edge.
        assert speedups["acwn"] > speedups["gm"] * 0.8, (family, n_pes, speedups)
        # 1024+ PEs must actually pay off on this workload: far beyond
        # the best 400-PE speedup would be suspicious, below the small
        # machines' would mean the machine layer broke.
        assert speedups["cwn"] > 25, (family, n_pes, speedups)
