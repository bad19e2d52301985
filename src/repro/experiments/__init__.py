"""Experiment harnesses regenerating the paper's tables and figures.

* :mod:`repro.experiments.validation` — the Sec. 8 fault-injection
  campaign (burst/counter/malicious/clique experiment classes);
* :mod:`repro.experiments.table2` — the Sec. 9 tuning experiment;
* :mod:`repro.experiments.adverse` — the Table 3/4 abnormal-transient
  scenarios and the immediate-isolation ablation;
* :mod:`repro.experiments.figure3` — the reward-threshold tradeoff.
"""

from .adverse import (
    AUTOMOTIVE_NODE_CLASSES,
    PAPER_TABLE4,
    TABLE4_TABLE,
    AdverseResult,
    aerospace_adverse,
    automotive_adverse,
    immediate_isolation_ablation,
    table4,
)
from .figure3 import (
    FIGURE3_SERIES,
    FIGURE3_TABLE,
    Figure3Series,
    figure3_series,
    paper_choice_line,
    paper_choice_summary,
    pr_counter_replay_check,
    simulate_point,
)
from .discrimination import (
    DISCRIMINATION_TABLE,
    DiscriminationSummary,
    FilterOutcome,
    discrimination_study,
    generate_health_stream,
    replay_filters,
)
from .oracle import (
    ORACLE_TABLE,
    OracleReport,
    OracleViolation,
    check_against_oracle,
    ground_truth_from_trace,
    lemma_conditions_hold,
)
from .portability import (
    PORTABILITY_TABLE,
    PortabilityResult,
    diagnosed_cluster_for,
    portability_sweep,
    run_on_platform,
)
from .reintegration_tuning import (
    REINTEGRATION_TABLE,
    ReintegrationPoint,
    run_threshold,
    threshold_sweep,
)
from .sensitivity import (
    SENSITIVITY_TABLE,
    PhasePoint,
    band,
    phase_sweep,
    run_phase,
)
from .resilience import (
    RESILIENCE_TABLE,
    ResiliencePoint,
    capacity_frontier,
    max_benign_within_bound,
    resilience_sweep,
    run_allocation,
)
from .table2 import (
    PAPER_TABLE2,
    TABLE2_TABLE,
    Table2Row,
    analytic_cross_check,
    measure_penalty_budget,
)
from .validation import (
    FAULT_ROUND,
    PAPER_N_NODES,
    VALIDATION_TABLE,
    CampaignSummary,
    expected_faulty_slots,
    run_burst_experiment,
    run_clique_experiment,
    run_malicious_experiment,
    run_penalty_reward_experiment,
)

__all__ = [
    "AUTOMOTIVE_NODE_CLASSES",
    "DISCRIMINATION_TABLE",
    "FIGURE3_SERIES",
    "FIGURE3_TABLE",
    "ORACLE_TABLE",
    "PORTABILITY_TABLE",
    "REINTEGRATION_TABLE",
    "RESILIENCE_TABLE",
    "SENSITIVITY_TABLE",
    "TABLE2_TABLE",
    "TABLE4_TABLE",
    "VALIDATION_TABLE",
    "DiscriminationSummary",
    "FilterOutcome",
    "discrimination_study",
    "generate_health_stream",
    "replay_filters",
    "OracleReport",
    "OracleViolation",
    "check_against_oracle",
    "ground_truth_from_trace",
    "lemma_conditions_hold",
    "PortabilityResult",
    "diagnosed_cluster_for",
    "portability_sweep",
    "run_on_platform",
    "ReintegrationPoint",
    "run_threshold",
    "threshold_sweep",
    "PhasePoint",
    "band",
    "phase_sweep",
    "run_phase",
    "ResiliencePoint",
    "capacity_frontier",
    "max_benign_within_bound",
    "resilience_sweep",
    "run_allocation",
    "PAPER_TABLE4",
    "AdverseResult",
    "aerospace_adverse",
    "automotive_adverse",
    "immediate_isolation_ablation",
    "table4",
    "Figure3Series",
    "figure3_series",
    "paper_choice_line",
    "paper_choice_summary",
    "pr_counter_replay_check",
    "simulate_point",
    "PAPER_TABLE2",
    "Table2Row",
    "analytic_cross_check",
    "measure_penalty_budget",
    "FAULT_ROUND",
    "PAPER_N_NODES",
    "CampaignSummary",
    "expected_faulty_slots",
    "run_burst_experiment",
    "run_clique_experiment",
    "run_malicious_experiment",
    "run_penalty_reward_experiment",
]
