"""Table 2 reproduction: experimental tuning of the p/r algorithm.

The paper's procedure (Sec. 9, "Tuning the diagnostic latency"):

1. inject a continuous faulty burst into a node with criticality 1;
2. observe the penalty counter value reached when the class's maximum
   tolerated diagnostic latency elapses — that is the class's penalty
   budget ``p_class``;
3. set ``P = max(p_class)`` and ``s_class = ceil(P / p_class)``.

:func:`measure_penalty_budget` performs step 1-2 on the actual
simulated cluster (not analytically): it runs a cluster under a
continuous bus burst and reads the penalty counter at the deadline.
:func:`repro.campaign.table2_campaign` runs one such measurement per
(domain, class) and assembles the full table (step 3);
:func:`analytic_cross_check` gives the closed-form derivation in
:mod:`repro.analysis.tuning` to compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..analysis.tuning import TuningResult, tune
from ..core.config import (
    AEROSPACE_TOLERATED_OUTAGE,
    AUTOMOTIVE_TOLERATED_OUTAGE,
    PAPER_REWARD_THRESHOLD,
    CriticalityClass,
    uniform_config,
)
from ..results.tables import Column, TableSpec
from ..spec import (
    ClusterSpec,
    ProtocolSpec,
    RunSpec,
    ScenarioSpec,
    execute,
    register_reducer,
)
from ..tt.cluster import PAPER_ROUND_LENGTH

#: Table 2 reference values.
PAPER_TABLE2 = {
    "automotive": {
        "P": 197,
        "R": PAPER_REWARD_THRESHOLD,
        "criticalities": {CriticalityClass.SC: 40, CriticalityClass.SR: 6,
                          CriticalityClass.NSR: 1},
    },
    "aerospace": {
        "P": 17,
        "R": PAPER_REWARD_THRESHOLD,
        "criticalities": {CriticalityClass.SC: 1},
    },
}


def penalty_budget_spec(tolerated_outage: float, seed: int = 0,
                        n_nodes: int = 4,
                        round_length: float = PAPER_ROUND_LENGTH) -> RunSpec:
    """Declarative form of one penalty-budget measurement.

    A continuous burst starts at a round boundary and outlasts the
    tolerated outage; the run covers exactly the rounds that complete
    strictly before the outage deadline — an isolation decided at the
    deadline itself would already exceed the tolerated outage (jobs
    execute inside their round, after the deadline instant).  The runs
    use ``trace_level=0`` (the counters are read directly from the
    services), so a metrics registry is the only way to observe the
    protocol's behaviour online here.
    """
    start_round = 6
    fault_start = start_round * round_length
    deadline_round = start_round + int(round(tolerated_outage / round_length))
    config = uniform_config(n_nodes, penalty_threshold=10 ** 9,
                            reward_threshold=10 ** 9)
    return RunSpec(
        protocol=ProtocolSpec.from_config(config),
        cluster=ClusterSpec(round_length=round_length, seed=seed,
                            trace_level=0),
        scenarios=(ScenarioSpec(
            "BusBurst",
            {"start": fault_start,
             "duration": tolerated_outage + 10 * round_length,
             "cause": "continuous-burst"}),),
        n_rounds=deadline_round,
        reducer="table2.penalty-budget",
    )


@register_reducer
class PenaltyBudgetReducer:
    """Read the consistent criticality-1 penalty counter at the deadline."""

    name = "table2.penalty-budget"

    def reduce(self, target, spec, state) -> int:
        """The agreed budget (asserting all nodes agree on it)."""
        n_nodes = spec.protocol.n_nodes
        budgets = {target.service(i).pr.penalties[0]
                   for i in range(1, n_nodes + 1)}
        if len(budgets) != 1:
            raise AssertionError(
                f"nodes disagree on the penalty budget: {budgets}")
        return budgets.pop()


def measure_penalty_budget(tolerated_outage: float, seed: int = 0,
                           n_nodes: int = 4,
                           round_length: float = PAPER_ROUND_LENGTH,
                           metrics=None) -> int:
    """Measure a class's penalty budget on the simulated cluster.

    Injects a continuous burst starting at a round boundary and reads
    node 1's penalty counter (criticality 1) at every node when the
    tolerated outage has elapsed, mirroring the paper's measurement.
    The returned budget is the *consistent* counter value (asserting
    all nodes agree).
    """
    return execute(penalty_budget_spec(tolerated_outage, seed=seed,
                                       n_nodes=n_nodes,
                                       round_length=round_length),
                   metrics=metrics)


@dataclass
class Table2Row:
    """One (domain, class) row of the reproduced Table 2."""

    domain: str
    criticality_class: CriticalityClass
    tolerated_outage: float
    measured_budget: int
    criticality: int
    penalty_threshold: int
    reward_threshold: int
    round_length: float


#: Table 2 as a declarative table over a ``List[Table2Row]`` aggregate.
TABLE2_TABLE = TableSpec(
    name="table2",
    title="Table 2: experimental tuning of the p/r algorithm",
    columns=(
        Column("Domain", lambda r: r.domain),
        Column("Class", lambda r: r.criticality_class.name),
        Column("Tolerated outage", lambda r: f"{r.tolerated_outage * 1e3:.0f} ms"),
        Column("Measured budget", lambda r: r.measured_budget),
        Column("Crit. lvl (s_i)", lambda r: r.criticality),
        Column("P", lambda r: r.penalty_threshold),
        Column("R", lambda r: f"{r.reward_threshold:.0e}"),
    ),
)


def analytic_cross_check(round_length: float = PAPER_ROUND_LENGTH
                         ) -> Tuple[TuningResult, TuningResult]:
    """The closed-form derivation, for comparison with the measurement."""
    return (tune(AUTOMOTIVE_TOLERATED_OUTAGE, round_length),
            tune(AEROSPACE_TOLERATED_OUTAGE, round_length))


__all__ = [
    "PAPER_TABLE2",
    "TABLE2_TABLE",
    "Table2Row",
    "PenaltyBudgetReducer",
    "penalty_budget_spec",
    "measure_penalty_budget",
    "analytic_cross_check",
]
