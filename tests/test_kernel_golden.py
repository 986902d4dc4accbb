"""Kernel goldens: every SimResult pinned as a literal result.

The matrix below — all fifteen registered strategies on
``grid:4x4``/``fib:9``, the paper's Table-2 slice (``paper_cwn``/
``paper_gm`` × grid/dlm × fib/dc), the sampler with periodic load
info, and a multi-query open-system stream — is pinned in
``tests/golden/kernel_results.json``.  Each entry records the SHA-256
of :func:`repro.parallel.cache.result_json` (which spells out *every*
result field, floats exactly) plus the plain ``events_executed`` and
``completion_time``, so a mismatch shows where the run diverged.
``events_executed`` is the most fragile witness of event-sequence
identity: any change to heap entries, sequence numbers or RNG
consumption moves it.

Regenerate after an *intentional* kernel or strategy change with::

    PYTHONPATH=src python tests/regen_kernel_golden.py

and review the diff — the golden file is the reference every kernel
change is held to.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CWN,
    STRATEGIES,
    AdaptiveCWN,
    BatchGradient,
    Bidding,
    CentralScheduler,
    Diffusion,
    EventGradient,
    GradientModel,
    KeepLocal,
    RandomPlacement,
    RandomWalk,
    RoundRobin,
    Symmetric,
    ThresholdRandom,
    WorkStealing,
    paper_cwn,
    paper_gm,
)
from repro.oracle.config import SimConfig
from repro.oracle.machine import Machine
from repro.oracle.stats import SimResult
from repro.parallel.cache import result_json
from repro.topology import DoubleLatticeMesh, Grid
from repro.workload import DivideConquer, Fibonacci

GOLDEN = Path(__file__).parent / "golden" / "kernel_results.json"
REGEN = "tests/regen_kernel_golden.py"


def assert_bit_identical(a, b):
    """Every SimResult field equal — floats by exact equality, not approx."""
    for field in (
        "strategy",
        "topology",
        "workload",
        "n_pes",
        "completion_time",
        "result_value",
        "total_goals",
        "sequential_work",
        "hop_histogram",
        "goal_messages_sent",
        "response_messages_sent",
        "responses_routed",
        "response_hops",
        "control_words_sent",
        "samples",
        "events_executed",
        "seed",
        "piggybacked_words",
        "params",
        "query_completions",
        "query_arrivals",
    ):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("busy_time", "goals_per_pe", "channel_busy_time", "channel_messages"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.first_goal_time, b.first_goal_time, equal_nan=True)


#: every registered strategy, keyed by its registry spec name and
#: default-parameterized small
ALL_STRATEGIES = {
    "cwn": lambda: CWN(radius=4, horizon=1),
    "acwn": lambda: AdaptiveCWN(radius=4, horizon=1),
    "gm": lambda: GradientModel(),
    "gm-event": lambda: EventGradient(),
    "gm-batch": lambda: BatchGradient(),
    "diffusion": lambda: Diffusion(),
    "central": lambda: CentralScheduler(),
    "stealing": lambda: WorkStealing(),
    "symmetric": lambda: Symmetric(),
    "bidding": lambda: Bidding(),
    "randomwalk": lambda: RandomWalk(),
    "threshold": lambda: ThresholdRandom(),
    "local": lambda: KeepLocal(),
    "random": lambda: RandomPlacement(),
    "roundrobin": lambda: RoundRobin(),
}

_TOPOLOGIES = {"grid": lambda: Grid(4, 4), "dlm": lambda: DoubleLatticeMesh(4, 4, 4)}
_PROGRAMS = {"fib": lambda: Fibonacci(9), "dc": lambda: DivideConquer(1, 21)}
_PAPER = {"cwn": paper_cwn, "gm": paper_gm}


def _strategy_case(make) -> Callable[[], SimResult]:
    return lambda: Machine(Grid(4, 4), Fibonacci(9), make(), SimConfig(seed=3)).run()


def _table2_case(family: str, kind: str, scheme: str) -> Callable[[], SimResult]:
    return lambda: Machine(
        _TOPOLOGIES[family](), _PROGRAMS[kind](), _PAPER[scheme](family),
        SimConfig(seed=1),
    ).run()


def _sampler_periodic() -> SimResult:
    cfg = SimConfig(seed=5, sample_interval=25.0, sample_per_pe=True,
                    load_info="periodic")
    return Machine(Grid(4, 4), Fibonacci(9), paper_cwn("grid"), cfg).run()


def _open_system_case(make) -> Callable[[], SimResult]:
    return lambda: Machine(
        Grid(4, 4), Fibonacci(8), make(), SimConfig(seed=2),
        queries=3, arrival_spacing=40.0,
    ).run()


#: the pinned matrix: golden key -> fresh machine + strategy + topology run
CASES: dict[str, Callable[[], SimResult]] = {
    **{f"strategy/{name}": _strategy_case(make) for name, make in ALL_STRATEGIES.items()},
    **{
        f"table2/{kind}-{family}/{scheme}": _table2_case(family, kind, scheme)
        for kind in _PROGRAMS for family in _TOPOLOGIES for scheme in _PAPER
    },
    "sampler-periodic": _sampler_periodic,
    "open-system/cwn": _open_system_case(lambda: paper_cwn("grid")),
    "open-system/central": _open_system_case(CentralScheduler),
}


def result_entry(result: SimResult) -> dict:
    """The pinned form of one result: a digest plus two readable fields."""
    return {
        "sha256": hashlib.sha256(result_json(result).encode()).hexdigest(),
        "events_executed": result.events_executed,
        "completion_time": result.completion_time,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check_case(golden: dict, key: str) -> SimResult:
    """Run ``CASES[key]`` and hold it to its pinned entry."""
    result = CASES[key]()
    entry = result_entry(result)
    pinned = golden[key]
    hint = f"{key}: if the change is intended, run `PYTHONPATH=src python {REGEN}`"
    assert entry["events_executed"] == pinned["events_executed"], hint
    assert entry["completion_time"] == pinned["completion_time"], hint
    assert entry["sha256"] == pinned["sha256"], hint
    return result


def test_golden_covers_the_matrix(golden):
    assert set(golden) == set(CASES)


def test_pinned_strategies_follow_the_registry(golden):
    """A newly registered strategy fails here until it is pinned."""
    pinned = {key.split("/", 1)[1] for key in golden if key.startswith("strategy/")}
    assert pinned == set(STRATEGIES.names())


class TestAllStrategiesGolden:
    @pytest.mark.parametrize("name", list(ALL_STRATEGIES))
    def test_grid_fib_slice(self, golden, name):
        result = check_case(golden, f"strategy/{name}")
        assert result.result_value == Fibonacci(9).expected_result()


class TestTable2SliceGolden:
    """The paper's two schemes on both topology families, both workloads."""

    @pytest.mark.parametrize("family", ["grid", "dlm"])
    @pytest.mark.parametrize("kind", ["fib", "dc"])
    def test_paper_pair(self, golden, family, kind):
        for scheme in _PAPER:
            check_case(golden, f"table2/{kind}-{family}/{scheme}")

    def test_sampler_and_periodic_load_info(self, golden):
        """Engine ticks: the utilization sampler and the load broadcaster."""
        result = check_case(golden, "sampler-periodic")
        assert len(result.samples) >= 2

    def test_open_system_stream(self, golden):
        """Multi-query arrivals exercise injection + per-query completion."""
        for scheme in ("cwn", "central"):
            check_case(golden, f"open-system/{scheme}")


# ---------------------------------------------------------------------------
# Sharded execution (repro.pdes) vs serial — the PR 7 contract
# ---------------------------------------------------------------------------

from repro.pdes import NotShardable, run_sharded  # noqa: E402
from repro.scenario import Scenario  # noqa: E402
from repro.scenario.arrivals import Arrivals  # noqa: E402

#: spec-string strategy names whose hooks only touch the acting PE
SHARDABLE_STRATEGIES = [
    "cwn", "acwn", "gm", "gm-event", "gm-batch", "diffusion", "bidding",
    "randomwalk", "threshold", "local", "random", "roundrobin",
]
#: strategies that synchronously read/write foreign PE state
UNSHARDABLE_STRATEGIES = ["central", "stealing", "symmetric"]


def assert_sharded_identical(scenario, shards):
    serial = scenario.run()
    sharded = run_sharded(scenario, shards)
    assert_bit_identical(serial, sharded)
    return serial


class TestShardedGolden:
    """run_sharded returns a SimResult bit-identical to scenario.run()."""

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("name", SHARDABLE_STRATEGIES)
    def test_grid_fib_slice(self, name, shards):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy=name, seed=3)
        serial = assert_sharded_identical(scenario, shards)
        assert serial.result_value == Fibonacci(9).expected_result()

    @pytest.mark.parametrize("name", UNSHARDABLE_STRATEGIES)
    def test_unshardable_strategies_refused(self, name):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy=name, seed=3)
        with pytest.raises(NotShardable):
            run_sharded(scenario, 2)
        # ... but a 1-shard "parallel" run is just the serial run.
        assert run_sharded(scenario, 1).completion_time > 0

    @pytest.mark.parametrize("strategy", ["cwn", "gm"])
    def test_dlm_mixed_channels(self, strategy):
        """Boundary buses *and* boundary links in one partition."""
        scenario = Scenario(workload="fib:9", topology="dlm:4x4x4",
                            strategy=strategy, seed=5)
        for shards in (2, 3):
            assert_sharded_identical(scenario, shards)

    def test_sampler_and_periodic(self):
        """Replicated site-0 ticks: sampler slices merge bit-identically."""
        scenario = Scenario(
            workload="fib:9", topology="grid:4x4", strategy="diffusion",
            seed=5,
            config=SimConfig(sample_interval=25.0, sample_per_pe=True,
                             load_info="periodic", load_info_interval=15.0),
        )
        serial = assert_sharded_identical(scenario, 4)
        assert len(serial.samples) >= 2

    def test_piggyback(self):
        """Load words riding goal messages across shard boundaries."""
        scenario = Scenario(
            workload="fib:9", topology="grid:4x4", strategy="gm", seed=5,
            config=SimConfig(load_info="piggyback"),
        )
        serial = assert_sharded_identical(scenario, 4)
        assert serial.piggybacked_words > 0

    def test_open_system(self):
        """Multi-query arrivals land on the owning shard only."""
        scenario = Scenario(
            workload="fib:8", topology="grid:4x4", strategy="cwn", seed=5,
            arrivals=Arrivals(queries=4, spacing=40.0, pes=(0, 5, 10, 15)),
        )
        assert_sharded_identical(scenario, 4)

    def test_instant_load_info_refused(self):
        scenario = Scenario(workload="fib:9", topology="grid:4x4",
                            strategy="cwn", seed=3,
                            config=SimConfig(load_info="instant"))
        with pytest.raises(NotShardable):
            run_sharded(scenario, 2)
