"""Unit tests for cost model and simulation configuration."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.oracle.config import CostModel, SimConfig


class TestCostModel:
    def test_transfer_time(self):
        cm = CostModel(word_time=2.0, hop_overhead=3.0)
        assert cm.transfer_time(4) == 11.0

    def test_unit_model(self):
        cm = CostModel.unit()
        assert cm.leaf_work == cm.split_work == cm.combine_work == 1.0
        assert cm.transfer_time(5) == 5.0

    def test_low_comm_is_default(self):
        assert CostModel.low_comm() == CostModel()

    def test_high_comm_is_more_expensive(self):
        assert CostModel.high_comm().word_time > CostModel.low_comm().word_time

    def test_with_comm_ratio(self):
        cm = CostModel().with_comm_ratio(0.1)
        assert cm.word_time == pytest.approx(0.1 * cm.leaf_work)
        assert cm.hop_overhead == cm.word_time

    def test_with_comm_ratio_invalid(self):
        with pytest.raises(ValueError):
            CostModel().with_comm_ratio(0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="leaf_work"):
            CostModel(leaf_work=-1)
        with pytest.raises(ValueError, match="word_time"):
            CostModel(word_time=-0.1)

    def test_all_zero_work_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CostModel(leaf_work=0, split_work=0, combine_work=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostModel().leaf_work = 5  # type: ignore[misc]


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.load_info == "on_change"
        assert cfg.sample_interval == 0.0
        assert cfg.trace_hops is True

    def test_replace(self):
        cfg = SimConfig().replace(seed=42, sample_interval=10.0)
        assert cfg.seed == 42
        assert cfg.sample_interval == 10.0
        # original untouched (frozen dataclass semantics)
        assert SimConfig().seed == 0

    def test_bad_load_info_mode(self):
        with pytest.raises(ValueError, match="load_info"):
            SimConfig(load_info="telepathy")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(load_info_delay=-1)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(load_info_interval=0)

    def test_negative_sample_interval_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(sample_interval=-5)


class TestToDict:
    """``to_dict`` builds its dict from field names instead of calling
    ``dataclasses.asdict``; the output — key order included, since the
    cache files and hashes are built from it — must be what ``asdict``
    gave, with ``pe_speeds`` as a list."""

    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(),
            SimConfig(
                costs=CostModel(leaf_work=7.5, word_time=2.0),
                seed=3,
                pe_speeds=(1.0, 2.0, 0.5, 1.0),
                max_events=None,
                queue_discipline="lifo",
            ),
        ],
        ids=["defaults", "overrides"],
    )
    def test_matches_asdict(self, cfg):
        expected = asdict(cfg)
        if expected["pe_speeds"] is not None:
            expected["pe_speeds"] = list(expected["pe_speeds"])
        got = cfg.to_dict()
        assert got == expected
        assert list(got) == list(expected)
        assert list(got["costs"]) == list(expected["costs"])
        assert cfg.costs.to_dict() == asdict(cfg.costs)
        assert SimConfig.from_dict(got) == cfg
