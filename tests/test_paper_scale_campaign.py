"""Paper-scale validation campaign (marked slow).

Sec. 8 repeats every experiment class 100 times; the default test suite
runs reduced repetitions for speed.  This slow test raises the count to
a statistically meaningful level (20 seeds per class ≈ 360 injections)
and also exercises the campaign across dynamic schedules, where the
seed actually changes the protocol's execution.
"""

import pytest

from repro.campaign import run_campaign, validation_campaign
from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster
from repro.experiments.oracle import check_against_oracle
from repro.faults.scenarios import SlotBurst


@pytest.mark.slow
def test_campaign_20_reps_all_pass():
    definition = validation_campaign(repetitions=20)
    result = run_campaign(definition.labeled_specs, name=definition.name)
    result.raise_first_error()
    summary = definition.aggregate(result.results)
    assert summary.total_injections == 18 * 20
    failing = {cls: rate for cls, rate in summary.pass_rates().items()
               if rate < 1.0}
    assert not failing, failing


@pytest.mark.slow
def test_burst_matrix_with_dynamic_schedules_oracle():
    # Every (burst length, start slot) class under dynamic schedules,
    # scored with the full Theorem 1 oracle.
    for n_slots in (1, 2, 8):
        for start_slot in range(1, 5):
            for seed in range(3):
                config = uniform_config(4, penalty_threshold=10 ** 6,
                                        reward_threshold=10 ** 6)
                dc = DiagnosedCluster(config, seed=seed,
                                      dynamic_schedules=True)
                dc.cluster.add_scenario(SlotBurst(
                    dc.cluster.timebase, 6, start_slot, n_slots))
                dc.run_rounds(20)
                report = check_against_oracle(dc)
                assert report.ok, (n_slots, start_slot, seed,
                                   report.violations[:2])
