"""The frozen benchmark harness's view of the library.

``perfbench/`` never changes alongside ``src/``, so every name it
imports and every call it makes must keep working.  These tests import
its modules the way ``perfbench/run.py`` does (``perfbench/`` on
``sys.path``) and drive the farm, cache and fleet entry points it uses,
so a ``src/`` change that would break the benchmark fails here first.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.parallel import ResultCache, RunSpec, result_json, run_batch
from repro.scenario import Scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The harness modules, imported as ``perfbench/run.py`` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {
            name: importlib.import_module(name)
            for name in ("measure", "layers", "workload_sweep", "workload_large", "workload_serve")
        }
    finally:
        sys.path.remove(str(PERFBENCH))


def test_workload_specs_parse(perfbench):
    for spec in perfbench["workload_sweep"].generate_specs(1)[:8]:
        Scenario.from_spec(spec).content_hash()
    Scenario.from_spec(perfbench["workload_large"].spec_for(1)).content_hash()
    for spec in perfbench["workload_serve"].FRESH:
        Scenario.from_spec(spec).seeded().content_hash()


def test_farmed_runs_match_direct_runs(perfbench, tmp_path):
    scenarios = [Scenario.from_spec(s) for s in perfbench["workload_sweep"].generate_specs(1)[:4]]
    runs = [RunSpec.from_scenario(sc) for sc in scenarios]
    report = run_batch(runs, jobs=2, cache=ResultCache(tmp_path))
    assert report.simulated == len(scenarios) and not report.failures
    assert [result_json(r) for r in report.results] == [
        result_json(sc.run()) for sc in scenarios
    ]


def test_cache_probe_reads_back_every_result(perfbench, tmp_path):
    layers = perfbench["layers"]
    tracer = perfbench["measure"].Tracer()
    scenario = Scenario.from_spec("fib:8 @ grid:2x2 / cwn?seed=1")
    pairs = [(RunSpec.from_scenario(scenario), scenario.run())]
    assert layers.cache_probe(pairs, str(tmp_path), tracer) == 0
    assert tracer.calls("parallel.cache_get") == 1
    assert tracer.calls("parallel.cache_put") == 1


def test_fleet_round_trip(perfbench):
    assert perfbench["layers"].fleet_rtt_ms(trips=2) > 0
