"""Unit tests for protocol configuration."""

import pytest

from repro.core.config import (
    AEROSPACE_PENALTY_THRESHOLD,
    AUTOMOTIVE_PENALTY_THRESHOLD,
    PAPER_REWARD_THRESHOLD,
    CriticalityClass,
    IsolationMode,
    ProtocolConfig,
    aerospace_config,
    automotive_config,
    uniform_config,
)


class TestValidation:
    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            uniform_config(1)

    def test_criticalities_length(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_nodes=4, penalty_threshold=1,
                           reward_threshold=1, criticalities=[1, 1])

    def test_criticalities_positive(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_nodes=2, penalty_threshold=1,
                           reward_threshold=1, criticalities=[1, 0])

    def test_thresholds(self):
        with pytest.raises(ValueError):
            uniform_config(4, penalty_threshold=-1)
        with pytest.raises(ValueError):
            uniform_config(4, reward_threshold=0)

    def test_startup_rounds_not_negative(self):
        with pytest.raises(ValueError, match="startup_rounds"):
            uniform_config(4, startup_rounds=-1)
        # Round 0 stays a legal first diagnosed round.
        assert uniform_config(4, startup_rounds=0).startup_rounds == 0

    def test_reintegration_requires_observe(self):
        with pytest.raises(ValueError):
            uniform_config(4, reintegration_reward_threshold=10)
        # OK with observe mode.
        cfg = uniform_config(4, isolation_mode=IsolationMode.OBSERVE,
                             reintegration_reward_threshold=10)
        assert cfg.reintegration_reward_threshold == 10


class TestDerived:
    def test_criticality_of_is_one_based(self):
        cfg = uniform_config(4).with_updates(criticalities=[40, 6, 1, 40])
        assert cfg.criticality_of(1) == 40
        assert cfg.criticality_of(3) == 1

    def test_detection_pipeline_rounds(self):
        assert uniform_config(4).detection_pipeline_rounds() == 3
        assert uniform_config(
            4, all_send_curr_round=True).detection_pipeline_rounds() == 2

    def test_halt_defaults_by_mode(self):
        assert uniform_config(4).effective_halt_on_self_isolation is True
        observe = uniform_config(4, isolation_mode=IsolationMode.OBSERVE)
        assert observe.effective_halt_on_self_isolation is False
        forced = uniform_config(4, halt_on_self_isolation=False)
        assert forced.effective_halt_on_self_isolation is False

    def test_with_updates_returns_new_config(self):
        cfg = uniform_config(4)
        other = cfg.with_updates(penalty_threshold=99)
        assert other.penalty_threshold == 99
        assert cfg.penalty_threshold != 99


class TestPresets:
    def test_automotive_table2(self):
        cfg = automotive_config([CriticalityClass.SC, CriticalityClass.SR,
                                 CriticalityClass.NSR, CriticalityClass.SC])
        assert cfg.penalty_threshold == AUTOMOTIVE_PENALTY_THRESHOLD == 197
        assert cfg.reward_threshold == PAPER_REWARD_THRESHOLD == 10 ** 6
        assert list(cfg.criticalities) == [40, 6, 1, 40]

    def test_aerospace_table2(self):
        cfg = aerospace_config(4)
        assert cfg.penalty_threshold == AEROSPACE_PENALTY_THRESHOLD == 17
        assert list(cfg.criticalities) == [1, 1, 1, 1]
