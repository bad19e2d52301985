"""Tests for the Table 2 / Table 4 / Fig. 3 experiment harnesses.

These assert the *reproduction bands*: Table 2 must match the paper
exactly (it is determined by protocol arithmetic); Table 4 must match
the paper's ordering and be within a small tolerance (the paper's
physical injection timing differs slightly from our idealised bursts).
"""

import pytest

from repro.campaign import run_campaign, table2_campaign
from repro.core.config import CriticalityClass
from repro.experiments.adverse import (
    PAPER_TABLE4,
    aerospace_adverse,
    automotive_adverse,
    immediate_isolation_ablation,
)
from repro.experiments.figure3 import (
    figure3_series,
    paper_choice_summary,
    pr_counter_replay_check,
    simulate_point,
)
from repro.experiments.table2 import (
    analytic_cross_check,
    measure_penalty_budget,
)

C = CriticalityClass


def _table2_rows():
    """Table 2 rows through the campaign engine."""
    definition = table2_campaign()
    result = run_campaign(definition.labeled_specs, name=definition.name)
    result.raise_first_error()
    return definition.aggregate(result.results)


class TestTable2Measurement:
    def test_measured_budgets_match_paper(self):
        rows = {(r.domain, r.criticality_class): r for r in _table2_rows()}
        auto_sc = rows[("Automotive", C.SC)]
        assert auto_sc.measured_budget == 5
        assert auto_sc.criticality == 40
        assert auto_sc.penalty_threshold == 197
        assert rows[("Automotive", C.SR)].criticality == 6
        assert rows[("Automotive", C.NSR)].criticality == 1
        assert rows[("Aerospace", C.SC)].penalty_threshold == 17

    def test_measurement_agrees_with_closed_form(self):
        auto, aero = analytic_cross_check()
        rows = {(r.domain, r.criticality_class): r for r in _table2_rows()}
        for cls, budget in auto.penalty_budgets.items():
            assert rows[("Automotive", cls)].measured_budget == budget
        for cls, budget in aero.penalty_budgets.items():
            assert rows[("Aerospace", cls)].measured_budget == budget

    def test_budget_measurement_deterministic(self):
        assert measure_penalty_budget(50e-3, seed=1) == \
            measure_penalty_budget(50e-3, seed=2) == 17


@pytest.mark.slow
class TestTable4:
    def test_automotive_ordering_and_values(self):
        result = automotive_adverse(seed=0)
        t_sc = result.times[C.SC]
        t_sr = result.times[C.SR]
        t_nsr = result.times[C.NSR]
        assert t_sc < t_sr < t_nsr
        # Paper: 0.518 / 4.595 / 24.475 s.  Our idealised bursts land
        # within ~12% (see EXPERIMENTS.md for the per-value discussion).
        assert t_sc == pytest.approx(PAPER_TABLE4[("automotive", C.SC)],
                                     rel=0.02)
        assert t_sr == pytest.approx(PAPER_TABLE4[("automotive", C.SR)],
                                     rel=0.15)
        assert t_nsr == pytest.approx(PAPER_TABLE4[("automotive", C.NSR)],
                                      rel=0.05)

    def test_aerospace_value(self):
        result = aerospace_adverse(seed=0)
        assert result.times[C.SC] == pytest.approx(
            PAPER_TABLE4[("aerospace", C.SC)], rel=0.05)

    def test_immediate_isolation_ablation(self):
        ablation = immediate_isolation_ablation(seed=0)
        # Immediate isolation: whole system down within the first burst
        # (plus pipeline) — under 50 ms.
        assert ablation.immediate_all_down is not None
        assert ablation.immediate_all_down < 0.05
        # p/r keeps even the most critical node up ~10x longer.
        assert ablation.pr_times[C.SC] > 10 * ablation.immediate_all_down


class TestFigure3:
    def test_series_structure(self):
        series = figure3_series()
        assert len(series) == 4
        for s in series:
            rs = [p.reward_threshold for p in s.points]
            assert rs == sorted(rs)
            ps = [p.p_correlate_transient for p in s.points]
            assert ps == sorted(ps)

    def test_higher_rate_higher_correlation(self):
        series = figure3_series()
        at_r6 = [next(p for p in s.points if p.reward_threshold == 10 ** 6)
                 for s in series]
        ps = [p.p_correlate_transient for p in at_r6]
        assert ps == sorted(ps)

    def test_paper_choice_headline(self):
        summary = paper_choice_summary()
        assert summary["window_minutes"] == pytest.approx(41.67, abs=0.01)
        assert summary["p_correlate_at_0.01_per_hour"] < 0.01

    def test_monte_carlo_matches_closed_form(self):
        from repro.analysis.reliability import p_correlate_transient
        rate_h = 1.0
        estimate = simulate_point(rate_h, 10 ** 6, trials=4000, seed=1)
        exact = p_correlate_transient(rate_h / 3600.0, 10 ** 6)
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_pr_replay_check(self):
        assert pr_counter_replay_check(reward_threshold=100, gap_rounds=40)
        assert pr_counter_replay_check(reward_threshold=100, gap_rounds=150)
        assert pr_counter_replay_check(reward_threshold=10, gap_rounds=9)
        assert pr_counter_replay_check(reward_threshold=10, gap_rounds=10)
