"""Unit tests for the replication statistics and the scaling studies."""

from __future__ import annotations

import pytest

from repro.core import CWN
from repro.experiments.large_machines import (
    LargeMachinePoint,
    large_machine_plan,
    large_topology_spec,
    render_large_machines,
)
from repro.experiments.replication import (
    Replication,
    replicate_metric,
    replicate_pair,
    t95,
)
from repro.experiments.scaling import render_scaling, run_scaling
from repro.topology import Grid, make
from repro.workload import Fibonacci


class TestReplicationStats:
    def test_mean_std(self):
        rep = Replication((1.0, 2.0, 3.0))
        assert rep.mean == 2.0
        assert rep.std == pytest.approx(1.0)
        assert rep.n == 3

    def test_single_value_degenerate(self):
        rep = Replication((2.5,))
        assert rep.std == 0.0
        assert rep.ci95 == (2.5, 2.5)

    def test_ci_contains_mean(self):
        rep = Replication((1.0, 1.2, 0.9, 1.1))
        lo, hi = rep.ci95
        assert lo < rep.mean < hi

    def test_excludes(self):
        tight = Replication((10.0, 10.1, 9.9, 10.0))
        assert tight.excludes(1.0)
        assert not tight.excludes(10.0)

    def test_t95_table(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(30) == pytest.approx(2.042)
        assert t95(100) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t95(0)

    def test_str_format(self):
        text = str(Replication((1.0, 1.5)))
        assert "95% CI" in text and "n=2" in text


class TestReplicationRuns:
    def test_replicate_pair_small(self):
        rep = replicate_pair(Fibonacci(9), Grid(4, 4), seeds=(1, 2, 3))
        assert rep.n == 3
        assert all(r > 0 for r in rep.values)

    def test_replicate_metric(self):
        rep = replicate_metric(
            Fibonacci(9),
            Grid(4, 4),
            lambda: CWN(radius=3, horizon=1),
            metric="utilization",
            seeds=(1, 2, 3),
        )
        assert all(0 < v <= 1 for v in rep.values)

    def test_fresh_strategy_per_seed(self):
        # The factory must be invoked once per seed (strategies hold
        # per-run state).
        calls = []

        def factory():
            calls.append(1)
            return CWN(radius=3, horizon=1)

        replicate_metric(Fibonacci(7), Grid(4, 4), factory, seeds=(1, 2))
        assert len(calls) == 2


class TestScalingStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return run_scaling(program=Fibonacci(11), full=False, seed=1)

    def test_covers_both_families(self, points):
        assert {p.family for p in points} == {"grid", "dlm"}

    def test_machine_sizes(self, points):
        grid_sizes = sorted(p.n_pes for p in points if p.family == "grid")
        assert grid_sizes == [25, 64, 100]

    def test_diameters_recorded(self, points):
        for p in points:
            if p.family == "dlm":
                assert p.diameter <= 6
            if p.family == "grid" and p.n_pes == 100:
                assert p.diameter == 10

    def test_ratio_property(self, points):
        p = points[0]
        assert p.ratio == pytest.approx(p.cwn_speedup / p.gm_speedup)

    def test_render(self, points):
        text = render_scaling(points)
        assert "diameter" in text
        assert "grid:25" in text and "dlm:100" in text


class TestLargeMachinePlan:
    """Plan construction only — execution lives in the large bench and
    the CI smoke job (a 1024-PE sweep is too heavy for the unit suite)."""

    def test_shapes_hit_requested_sizes(self):
        for family in ("grid", "torus3d", "hypercube"):
            for n_pes in (1024, 2048, 4096):
                assert make(large_topology_spec(family, n_pes)).n == n_pes

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            large_topology_spec("grid", 500)
        with pytest.raises(ValueError):
            large_topology_spec("dlm", 1024)

    def test_plan_structure(self):
        plan = large_machine_plan(program=Fibonacci(11), full=False, seed=1)
        # reduced scale: 3 families x 1024 PEs x 3 strategies
        assert len(plan.runs) == 9
        for run in plan.runs:
            run.spelled()  # farmable: an unspellable run raises ValueError
        families = {meta[0] for meta in plan.meta}
        assert families == {"grid", "torus3d", "hypercube"}
        assert {meta[1] for meta in plan.meta} == {1024}
        assert {meta[3] for meta in plan.meta} == {"cwn", "acwn", "gm"}

    def test_full_scale_extends_to_4096(self):
        plan = large_machine_plan(program=Fibonacci(11), full=True, seed=1)
        assert {meta[1] for meta in plan.meta} == {1024, 2048, 4096}
        assert len(plan.runs) == 27

    def test_diameter_axis_spreads_at_fixed_size(self):
        plan = large_machine_plan(program=Fibonacci(11), full=True, seed=1)
        diameters = {meta[0]: meta[2] for meta in plan.meta if meta[1] == 4096}
        assert diameters["hypercube"] == 12
        assert diameters["torus3d"] == 24
        assert diameters["grid"] == 64

    def test_render(self):
        points = [
            LargeMachinePoint("grid", 1024, 32, "cwn", 80.0, 0.08, 1000.0),
            LargeMachinePoint("grid", 1024, 32, "acwn", 75.0, 0.07, 1100.0),
            LargeMachinePoint("grid", 1024, 32, "gm", 50.0, 0.05, 1600.0),
        ]
        text = render_large_machines(points)
        assert "grid:1024" in text
        assert "CWN/GM" in text
        assert "1.60" in text  # 80 / 50 on the cwn row
