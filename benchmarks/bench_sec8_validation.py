"""Sec. 8: the fault-injection validation campaign.

The paper injects 1500 physical faults over 18 experiment classes on a
4-node cluster and reports that the protocol properties held in every
experiment.  This benchmark reruns the campaign on the simulated
cluster (a configurable number of repetitions per class — the paper
uses 100; the benchmark default keeps the run short while the full
campaign is available via ``repro-diag validate --reps 100``) and
prints the per-class pass rates.
"""

import os

from conftest import emit

from repro.analysis.reporting import render_table
from repro.campaign import run_campaign, validation_campaign

REPETITIONS = 3
#: Worker processes for the campaign; the aggregate result is identical
#: for any value (the engine merges verdicts in task order).
JOBS = min(4, os.cpu_count() or 1)


def run_validation():
    definition = validation_campaign(repetitions=REPETITIONS)
    result = run_campaign(definition.labeled_specs, name=definition.name,
                          jobs=JOBS)
    result.raise_first_error()
    return definition.aggregate(result.results)


def test_sec8_validation_campaign(benchmark):
    summary = benchmark.pedantic(run_validation, rounds=1, iterations=1)
    rates = summary.pass_rates()
    rows = [(cls, len(summary.results[cls]), f"{100 * rates[cls]:.0f}%")
            for cls in sorted(summary.results)]
    rows.append(("TOTAL", summary.total_injections,
                 "100%" if summary.all_passed else "FAILURES"))
    text = render_table(
        ["experiment class", "injections", "pass rate"], rows,
        title=f"Sec. 8 — validation campaign ({REPETITIONS} repetitions "
              f"per class; paper: 100 reps, 1500 injections, all passed)")
    emit("sec8_validation", text)
    assert summary.all_passed
    assert len(summary.results) == 18
