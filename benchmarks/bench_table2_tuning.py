"""Table 2: experimental tuning of the p/r algorithm.

Reruns the paper's tuning experiment on the simulated cluster: inject
continuous faulty bursts, read the penalty counter when each class's
maximum tolerated diagnostic latency elapses, then derive
``P = max(p_class)`` and ``s_class = ceil(P / p_class)``.

Expected to match the paper *exactly* (the quantities are protocol
arithmetic at T = 2.5 ms): automotive P = 197 with s = 40/6/1,
aerospace P = 17 with s = 1, R = 10^6.
"""

import os

from conftest import emit

from repro.analysis.reporting import render_table
from repro.campaign import run_campaign, table2_campaign
from repro.core.config import CriticalityClass
from repro.experiments.table2 import PAPER_TABLE2

C = CriticalityClass

PAPER_S = {
    ("Automotive", C.SC): 40,
    ("Automotive", C.SR): 6,
    ("Automotive", C.NSR): 1,
    ("Aerospace", C.SC): 1,
}

EXAMPLES = {
    ("Automotive", C.SC): "X-by-wire",
    ("Automotive", C.SR): "Stability control",
    ("Automotive", C.NSR): "Door control",
    ("Aerospace", C.SC): "High Lift, Landing Gear",
}


#: Worker processes; one (domain, class) measurement per task, result
#: identical for any value.
JOBS = min(4, os.cpu_count() or 1)


def run_tuning():
    definition = table2_campaign(seed=0)
    result = run_campaign(definition.labeled_specs, name=definition.name,
                          jobs=JOBS)
    result.raise_first_error()
    return definition.aggregate(result.results)


def test_table2_tuning(benchmark):
    rows_data = benchmark(run_tuning)
    rows = []
    for r in rows_data:
        key = (r.domain, r.criticality_class)
        rows.append((
            r.domain, r.criticality_class.name, EXAMPLES[key],
            f"{r.tolerated_outage * 1e3:.0f} ms",
            r.measured_budget,
            f"{r.criticality} (paper: {PAPER_S[key]})",
            r.penalty_threshold,
            f"{r.reward_threshold:.0e}",
            f"{r.round_length * 1e3:.1f} ms",
        ))
    text = render_table(
        ["Domain", "Class", "Example", "Tolerated outage",
         "Measured budget", "Crit. lvl (s_i)", "P", "R", "TDMA"],
        rows, title="Table 2 — experimental tuning of the p/r algorithm")
    emit("table2_tuning", text)

    by_key = {(r.domain, r.criticality_class): r for r in rows_data}
    for key, s in PAPER_S.items():
        assert by_key[key].criticality == s, key
    assert by_key[("Automotive", C.SC)].penalty_threshold == \
        PAPER_TABLE2["automotive"]["P"] == 197
    assert by_key[("Aerospace", C.SC)].penalty_threshold == \
        PAPER_TABLE2["aerospace"]["P"] == 17
