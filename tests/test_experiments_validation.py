"""Tests for the Sec. 8 validation harness (integration level)."""

import pytest

from repro.campaign import run_campaign, validation_campaign
from repro.experiments.validation import (
    CampaignSummary,
    expected_faulty_slots,
    run_burst_experiment,
    run_clique_experiment,
    run_malicious_experiment,
    run_penalty_reward_experiment,
)


class TestExpectedFaultySlots:
    def test_single_slot(self):
        assert expected_faulty_slots(4, 2, 1, fault_round=6) == {6: (2,)}

    def test_two_slots_same_round(self):
        assert expected_faulty_slots(4, 2, 2, fault_round=6) == {6: (2, 3)}

    def test_wraps_rounds(self):
        assert expected_faulty_slots(4, 4, 2, fault_round=6) == \
            {6: (4,), 7: (1,)}

    def test_two_full_rounds(self):
        expected = expected_faulty_slots(4, 1, 8, fault_round=6)
        assert expected == {6: (1, 2, 3, 4), 7: (1, 2, 3, 4)}


class TestBurstClasses:
    @pytest.mark.parametrize("start_slot", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_slots", [1, 2])
    def test_lemma2_regime(self, n_slots, start_slot):
        result = run_burst_experiment(n_slots, start_slot, seed=0)
        assert result["passed"], result

    @pytest.mark.parametrize("start_slot", [1, 2, 3, 4])
    def test_blackout_regime(self, start_slot):
        result = run_burst_experiment(8, start_slot, seed=0)
        assert result["passed"], result

    def test_repetitions_with_distinct_seeds(self):
        for seed in range(5):
            assert run_burst_experiment(2, 3, seed=seed)["passed"]


class TestPenaltyRewardClass:
    def test_counters_progress_every_round(self):
        result = run_penalty_reward_experiment(seed=0)
        assert result["passed"]
        # Faults every second round: penalties 1..10 interleaved with
        # reward pulses.
        penalties = [p for _d, p, _r in result["evolution"]]
        assert penalties[0] == 1
        assert max(penalties) == 10

    def test_alternating_pattern(self):
        result = run_penalty_reward_experiment(seed=1)
        evolution = result["evolution"]
        for (d0, p0, r0), (d1, p1, r1) in zip(evolution, evolution[1:]):
            assert d1 == d0 + 1
            # Either penalty grew (fault) or reward grew (clean round).
            assert (p1 == p0 + 1 and r1 == 0) or (p1 == p0 and r1 == r0 + 1)


class TestMaliciousClass:
    @pytest.mark.parametrize("byzantine", [1, 2, 3, 4])
    def test_all_positions(self, byzantine):
        assert run_malicious_experiment(byzantine, seed=0)["passed"]


class TestCliqueClass:
    def test_detects_minority_node1(self):
        result = run_clique_experiment(seed=0)
        assert result["passed"]
        assert result["final_view"] == [2, 3, 4]
        assert result["view_latency_rounds"] is not None

    def test_different_disturbed_senders(self):
        for sender in (2, 3, 4):
            assert run_clique_experiment(disturbed_sender=sender,
                                         seed=1)["passed"]


class TestCampaign:
    def test_small_campaign_all_pass(self):
        definition = validation_campaign(repetitions=1)
        result = run_campaign(definition.labeled_specs,
                              name=definition.name)
        result.raise_first_error()
        summary = definition.aggregate(result.results)
        assert summary.all_passed
        # 12 burst classes + p/r + 4 malicious + clique = 18 classes.
        assert len(summary.results) == 18
        assert summary.total_injections == 18

    def test_summary_bookkeeping(self):
        summary = CampaignSummary()
        summary.add("x", True)
        summary.add("x", False)
        assert summary.total_injections == 2
        assert not summary.all_passed
        assert summary.pass_rates() == {"x": 0.5}
