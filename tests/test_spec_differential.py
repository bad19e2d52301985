"""Differential proof: the spec layer changes nothing about the physics.

Each test re-implements the *pre-refactor* hand-wired experiment
assembly inline (cluster construction, scenario attachment, probing,
scoring — exactly as ``repro.experiments`` built runs before the
RunSpec layer existed) and asserts the spec-built entry points produce
identical results, identical metrics snapshots (modulo the new
``spec.run.*`` provenance counters), and that the parallel sweep at
``jobs=4`` is byte-identical to ``jobs=1`` and to serial assembly.
"""

from typing import Any, Dict, List, Tuple

import pytest

from repro.analysis.metrics import (
    completeness_holds,
    consistency_violations,
    correctness_holds,
    diagnoses_for_round,
)
from repro.campaign import run_campaign, validation_campaign
from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster, MembershipCluster
from repro.experiments.validation import (
    FAULT_ROUND,
    expected_faulty_slots,
    run_burst_experiment,
    run_clique_experiment,
    run_malicious_experiment,
    run_penalty_reward_experiment,
)
from repro.experiments.table2 import measure_penalty_budget
from repro.faults.scenarios import BusBurst, SenderFault, SlotBurst, every_nth_round
from repro.obs import MetricsRegistry, render_json
from repro.spec import strip_provenance
from repro.tt.cluster import PAPER_ROUND_LENGTH

N = 4


def _config():
    return uniform_config(N, penalty_threshold=10 ** 6,
                          reward_threshold=10 ** 6)


# ---------------------------------------------------------------------------
# Pre-refactor assemblies, verbatim from the old experiment functions.
# ---------------------------------------------------------------------------

def _direct_burst(n_slots: int, start_slot: int, seed: int,
                  metrics=None) -> Dict[str, Any]:
    dc = DiagnosedCluster(_config(), seed=seed,
                          round_length=PAPER_ROUND_LENGTH, metrics=metrics)
    dc.cluster.add_scenario(SlotBurst(dc.cluster.timebase, FAULT_ROUND,
                                      start_slot, n_slots))
    expected = expected_faulty_slots(N, start_slot, n_slots)
    dc.run_rounds(max(expected) + 6)

    obedient = dc.obedient_node_ids()
    diagnosed: Dict[str, Dict[str, List[int]]] = {}
    complete = True
    correct = True
    for d_round, faulty in expected.items():
        diagnosed[str(d_round)] = {
            str(node): list(hv) for node, hv in
            diagnoses_for_round(dc.trace, d_round, obedient).items()}
        for f in faulty:
            if not completeness_holds(dc.trace, d_round, f, obedient):
                complete = False
        correct_nodes = [j for j in range(1, N + 1) if j not in faulty]
        if not correctness_holds(dc.trace, d_round, correct_nodes, obedient):
            correct = False
    consistent = not consistency_violations(dc.trace, obedient)
    return {"n_slots": n_slots, "start_slot": start_slot,
            "expected": {str(r): list(f) for r, f in expected.items()},
            "diagnosed": diagnosed, "consistent": consistent,
            "complete": complete, "correct": correct,
            "passed": consistent and complete and correct}


def _direct_penalty_reward(target: int, seed: int) -> Dict[str, Any]:
    config = _config()
    dc = DiagnosedCluster(config, seed=seed)
    dc.cluster.add_scenario(every_nth_round(target, period=2,
                                            start_round=FAULT_ROUND,
                                            occurrences=10))
    observer = dc.service(1)
    evolution: List[Tuple[int, int, int]] = []

    def probe(service, cons_hv, k):
        d_round = k - config.detection_pipeline_rounds()
        p, r = service.pr.counters_of(target)
        evolution.append((d_round, p, r))

    observer.post_update_hooks.append(probe)
    dc.run_rounds(FAULT_ROUND + 20 + 6)

    window = [[d, p, r] for d, p, r in evolution
              if FAULT_ROUND <= d < FAULT_ROUND + 20]
    progress = True
    for (_d0, p0, r0), (_d1, p1, r1) in zip(window, window[1:]):
        if (p1, r1) == (p0, r0):
            progress = False
    if not window or window[0][1] == 0:
        progress = False
    consistent = not consistency_violations(dc.trace, dc.obedient_node_ids())
    return {"target": target, "evolution": window,
            "counters_progress": progress, "consistent": consistent,
            "passed": progress and consistent}


def _direct_malicious(byzantine: int, seed: int,
                      n_rounds: int = 30) -> Dict[str, Any]:
    dc = DiagnosedCluster(_config(), seed=seed, byzantine_nodes=[byzantine])
    dc.run_rounds(n_rounds)
    obedient = dc.obedient_node_ids()
    consistent = not consistency_violations(dc.trace, obedient)
    no_false = True
    for node in obedient:
        for _d_round, hv in dc.health_vectors(node).items():
            for j in range(1, N + 1):
                if j != byzantine and hv[j - 1] == 0:
                    no_false = False
    return {"byzantine": byzantine, "consistent": consistent,
            "no_false_accusation": no_false,
            "passed": consistent and no_false}


def _direct_clique(disturbed_sender: int, seed: int) -> Dict[str, Any]:
    mc = MembershipCluster(_config(), seed=seed)
    mc.cluster.add_scenario(SenderFault(
        disturbed_sender, kind="asymmetric", rounds=[FAULT_ROUND],
        detectable_by=[1], cause="disturbance-node"))
    mc.run_rounds(FAULT_ROUND + 12)

    majority = [i for i in range(2, N + 1)]
    views = [mc.services[i].view for i in majority]
    consistent_views = len(set(views)) == 1
    final_view = sorted(views[0]) if consistent_views else None
    detected = all(1 not in v for v in views)
    latency = None
    changes = [rec for rec in mc.trace.select(category="view")
               if rec.node in majority]
    if changes:
        latency = min(rec.data["round_index"] for rec in changes) - FAULT_ROUND
    return {"minority": 1, "view_latency_rounds": latency,
            "final_view": final_view, "detected": detected,
            "consistent_views": consistent_views,
            "passed": (detected and consistent_views
                       and final_view is not None and 1 not in final_view)}


def _direct_budget(tolerated_outage: float, seed: int = 0) -> int:
    config = uniform_config(N, penalty_threshold=10 ** 9,
                            reward_threshold=10 ** 9)
    dc = DiagnosedCluster(config, seed=seed,
                          round_length=PAPER_ROUND_LENGTH, trace_level=0)
    start_round = 6
    fault_start = dc.cluster.timebase.round_start(start_round)
    dc.cluster.add_scenario(BusBurst(
        fault_start, tolerated_outage + 10 * PAPER_ROUND_LENGTH,
        cause="continuous-burst"))
    deadline_round = start_round + int(
        round(tolerated_outage / PAPER_ROUND_LENGTH))
    dc.run_rounds(deadline_round)
    budgets = {dc.service(i).pr.penalties[0] for i in range(1, N + 1)}
    assert len(budgets) == 1
    return budgets.pop()


# ---------------------------------------------------------------------------
# Experiment-level equivalence.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_slots,start_slot,seed",
                         [(1, 1, 0), (1, 3, 7), (2, 4, 1), (8, 2, 3)])
def test_burst_matches_direct_assembly(n_slots, start_slot, seed):
    assert (run_burst_experiment(n_slots, start_slot, seed=seed)
            == _direct_burst(n_slots, start_slot, seed))


@pytest.mark.parametrize("target,seed", [(2, 0), (3, 5)])
def test_penalty_reward_matches_direct_assembly(target, seed):
    assert (run_penalty_reward_experiment(target=target, seed=seed)
            == _direct_penalty_reward(target, seed))


@pytest.mark.parametrize("byzantine,seed", [(1, 0), (4, 2)])
def test_malicious_matches_direct_assembly(byzantine, seed):
    assert (run_malicious_experiment(byzantine, seed=seed)
            == _direct_malicious(byzantine, seed))


@pytest.mark.parametrize("seed", [0, 3])
def test_clique_matches_direct_assembly(seed):
    assert run_clique_experiment(seed=seed) == _direct_clique(3, seed)


@pytest.mark.parametrize("outage", [0.05, 0.1])
def test_table2_budget_matches_direct_assembly(outage):
    assert measure_penalty_budget(outage) == _direct_budget(outage)


def test_metered_run_matches_direct_modulo_provenance():
    direct_registry = MetricsRegistry()
    spec_registry = MetricsRegistry()
    direct = _direct_burst(2, 1, seed=4, metrics=direct_registry)
    via_spec = run_burst_experiment(2, 1, seed=4, metrics=spec_registry)
    assert via_spec == direct
    assert (strip_provenance(spec_registry.snapshot())
            == direct_registry.snapshot())
    # ... and the provenance namespace is the *only* difference.
    assert spec_registry.snapshot() != direct_registry.snapshot()


# ---------------------------------------------------------------------------
# Sweep-level equivalence: serial assembly == jobs=1 == jobs=4.
# ---------------------------------------------------------------------------

def _direct_campaign_passes(repetitions: int) -> List[Tuple[str, bool]]:
    passes: List[Tuple[str, bool]] = []
    for n_slots in (1, 2, 2 * N):
        for start_slot in range(1, N + 1):
            cls = f"burst-{n_slots}-slot{start_slot}"
            for rep in range(repetitions):
                passes.append(
                    (cls, _direct_burst(n_slots, start_slot, rep)["passed"]))
    for rep in range(repetitions):
        passes.append(("penalty-reward",
                       _direct_penalty_reward(2, rep)["passed"]))
    for byzantine in range(1, N + 1):
        for rep in range(repetitions):
            passes.append((f"malicious-node{byzantine}",
                           _direct_malicious(byzantine, rep)["passed"]))
    for rep in range(repetitions):
        passes.append(("clique-detection",
                       _direct_clique(3, rep)["passed"]))
    return passes


def test_sweep_matches_direct_assembly_at_jobs_1_and_4():
    direct = _direct_campaign_passes(repetitions=1)

    def flatten(summary):
        return [(cls, passed) for cls, outcomes in summary.results.items()
                for passed in outcomes]

    def sweep(jobs: int):
        definition = validation_campaign(repetitions=1)
        result = run_campaign(definition.labeled_specs, jobs=jobs)
        result.raise_first_error()
        return definition.aggregate(result.results)

    assert flatten(sweep(jobs=1)) == direct
    assert flatten(sweep(jobs=4)) == direct


def test_sweep_metrics_byte_identical_across_jobs():
    from repro.obs import merge_snapshots

    def merged(jobs: int):
        result = run_campaign(
            validation_campaign(repetitions=1).labeled_specs, jobs=jobs)
        return result.results, merge_snapshots(result.snapshots)

    serial_results, serial_snapshot = merged(jobs=1)
    parallel_results, parallel_snapshot = merged(jobs=4)
    assert parallel_results == serial_results
    assert render_json(parallel_snapshot) == render_json(serial_snapshot)
