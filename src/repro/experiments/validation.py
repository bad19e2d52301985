"""Sec. 8 validation campaign: fault injection experiment classes.

The paper validates the protocols with 1500 physical fault injections
on a 4-node cluster (T = 2.5 ms), grouped into experiment classes:

* **bursty faults** of one slot, two slots and two TDMA rounds,
  starting in any of the 4 sending slots (12 classes x 100 reps);
* **penalty/reward update**: a fault in one node's sending slot every
  second TDMA round for 20 rounds — either the penalty or the reward
  counter must change at every diagnosed round;
* **malicious node**: one node broadcasts random local syndromes; the
  other nodes must never diagnose a correct node as faulty (4 classes);
* **clique detection**: the disturbance node separates Node 1 from the
  rest of the cluster during another node's sending slot, producing a
  minority clique formed by Node 1, which the membership protocol must
  detect and exclude.

Every experiment class is described declaratively: the ``*_spec``
builders return :class:`~repro.spec.RunSpec` values naming a reducer
registered here, and the ``run_*`` functions simply
:func:`~repro.spec.execute` them.  The reducers score the finished
cluster against the paper's properties (correctness, completeness,
consistency; counter behaviour; view changes) and return JSON dicts
with a ``passed`` verdict.
:func:`validation_specs` enumerates the whole campaign as serializable
specs; :func:`repro.campaign.validation_campaign` runs it through the
campaign engine (``repro-diag validate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..analysis.metrics import (
    completeness_holds,
    consistency_violations,
    correctness_holds,
    diagnoses_for_round,
)
from ..core.config import ProtocolConfig, uniform_config
from ..faults.scenarios import SenderFault, every_nth_round
from ..results.tables import Column, TableSpec
from ..spec import (
    ClusterSpec,
    ProtocolSpec,
    RunSpec,
    ScenarioSpec,
    VariantSpec,
    execute,
    register_reducer,
)
from ..tt.cluster import PAPER_ROUND_LENGTH

#: The paper's prototype size.
PAPER_N_NODES = 4
#: Round where injections start (after the pipeline has filled).
FAULT_ROUND = 6


def _default_config(n_nodes: int = PAPER_N_NODES) -> ProtocolConfig:
    # A permissive p/r configuration: validation scores the health
    # vectors themselves, not isolation decisions.
    return uniform_config(n_nodes, penalty_threshold=10 ** 6,
                          reward_threshold=10 ** 6)


def _default_protocol(n_nodes: int) -> ProtocolSpec:
    return ProtocolSpec.from_config(_default_config(n_nodes))


def expected_faulty_slots(n_nodes: int, start_slot: int,
                          n_slots: int, fault_round: int = FAULT_ROUND
                          ) -> Dict[int, Tuple[int, ...]]:
    """Ground truth: the senders hit by a burst, grouped by round."""
    per_round: Dict[int, List[int]] = {}
    gidx0 = fault_round * n_nodes + (start_slot - 1)
    for offset in range(n_slots):
        gidx = gidx0 + offset
        per_round.setdefault(gidx // n_nodes, []).append(gidx % n_nodes + 1)
    return {r: tuple(sorted(slots)) for r, slots in per_round.items()}


def burst_spec(n_slots: int, start_slot: int, seed: int = 0,
               n_nodes: int = PAPER_N_NODES,
               round_length: float = PAPER_ROUND_LENGTH) -> RunSpec:
    """Declarative form of one bursty-fault injection.

    Bursts of 1 or 2 slots exercise the Lemma 2 regime; a burst of two
    whole rounds (``n_slots = 2 * n_nodes``) is the Lemma 3 blackout.
    The run is sized so the pipeline diagnoses every affected round.
    """
    expected = expected_faulty_slots(n_nodes, start_slot, n_slots)
    return RunSpec(
        protocol=_default_protocol(n_nodes),
        cluster=ClusterSpec(round_length=round_length, seed=seed),
        scenarios=(ScenarioSpec("SlotBurst",
                                {"round_index": FAULT_ROUND,
                                 "slot": start_slot, "n_slots": n_slots}),),
        n_rounds=max(expected) + 6,
        reducer="validation.burst",
    )


@register_reducer
class BurstReducer:
    """Score a burst injection: consistency, completeness, correctness.

    The ground truth is re-derived from the spec's own ``SlotBurst``
    parameters, so the reducer needs no side-channel beyond the spec.
    The result is ``{"n_slots", "start_slot", "expected": {round:
    [faulty senders]}, "diagnosed": {round: {node: health vector}},
    "consistent", "complete", "correct", "passed"}`` with rounds and
    nodes as string keys; ``passed`` is the conjunction of the three
    properties.
    """

    name = "validation.burst"

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Score the finished run against the paper's three properties."""
        params = spec.scenarios[0].params
        n_nodes = spec.protocol.n_nodes
        start_slot = params["slot"]
        n_slots = params.get("n_slots", 1)
        expected = expected_faulty_slots(n_nodes, start_slot, n_slots,
                                         fault_round=params["round_index"])
        obedient = target.obedient_node_ids()
        diagnosed: Dict[str, Dict[str, List[int]]] = {}
        complete = True
        correct = True
        for d_round, faulty in expected.items():
            vectors = diagnoses_for_round(target.trace, d_round, obedient)
            diagnosed[str(d_round)] = {str(node): list(hv)
                                       for node, hv in vectors.items()}
            for f in faulty:
                if not completeness_holds(target.trace, d_round, f, obedient):
                    complete = False
            correct_nodes = [j for j in range(1, n_nodes + 1)
                             if j not in faulty]
            if not correctness_holds(target.trace, d_round, correct_nodes,
                                     obedient):
                correct = False
        consistent = not consistency_violations(target.trace, obedient)
        return {"n_slots": n_slots, "start_slot": start_slot,
                "expected": {str(r): list(faulty)
                             for r, faulty in expected.items()},
                "diagnosed": diagnosed, "consistent": consistent,
                "complete": complete, "correct": correct,
                "passed": consistent and complete and correct}


def run_burst_experiment(n_slots: int, start_slot: int, seed: int = 0,
                         n_nodes: int = PAPER_N_NODES,
                         round_length: float = PAPER_ROUND_LENGTH,
                         metrics=None) -> Dict[str, Any]:
    """One injection of a burst of ``n_slots`` slots from ``start_slot``."""
    return execute(burst_spec(n_slots, start_slot, seed=seed,
                              n_nodes=n_nodes, round_length=round_length),
                   metrics=metrics)


def penalty_reward_spec(target: int = 2, seed: int = 0,
                        n_nodes: int = PAPER_N_NODES) -> RunSpec:
    """Declarative form of the counter-update experiment.

    A fault in ``target``'s slot every second round for 20 rounds:
    "Hence, either the penalty or the reward counter should be
    increased at every round" (Sec. 8).
    """
    fault = every_nth_round(target, period=2, start_round=FAULT_ROUND,
                            occurrences=10)
    return RunSpec(
        protocol=_default_protocol(n_nodes),
        cluster=ClusterSpec(seed=seed),
        scenarios=(ScenarioSpec.from_scenario(fault),),
        n_rounds=FAULT_ROUND + 20 + 6,
        reducer="validation.penalty-reward",
    )


def _fault_window(params: Dict[str, Any]) -> Tuple[int, int]:
    """``(first_round, end_round)`` of a round-list ``SenderFault`` spec.

    The end is one period past the last active round — the half-open
    window over which the counters are required to progress.
    """
    rounds = sorted(params["rounds"])
    period = rounds[1] - rounds[0] if len(rounds) > 1 else 1
    return rounds[0], rounds[-1] + period


@register_reducer
class PenaltyRewardReducer:
    """Check that a counter moves at every diagnosed round of the window.

    ``prepare`` installs a post-update probe on node 1's service before
    the run is driven; ``reduce`` scores the recorded evolution.  The
    result is ``{"target", "evolution": [[diagnosed round, penalty,
    reward], ...], "counters_progress", "consistent", "passed"}``: the
    faulty sender, its counters at node 1 over the fault window,
    whether one of them changed at every diagnosed round, and
    ``passed`` = both properties.
    """

    name = "validation.penalty-reward"

    def prepare(self, target, spec) -> List[Tuple[int, int, int]]:
        """Install the counter-evolution probe; the list is the state."""
        fault_target = spec.scenarios[0].params["sender"]
        config = target.config
        observer = target.service(1)
        evolution: List[Tuple[int, int, int]] = []

        def probe(service, cons_hv, k):
            d_round = k - config.detection_pipeline_rounds()
            p, r = service.pr.counters_of(fault_target)
            evolution.append((d_round, p, r))

        observer.post_update_hooks.append(probe)
        return evolution

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Score the recorded counter evolution over the fault window."""
        params = spec.scenarios[0].params
        first_round, end_round = _fault_window(params)
        window = [[d, p, r] for d, p, r in state
                  if first_round <= d < end_round]
        progress = True
        for (d0, p0, r0), (d1, p1, r1) in zip(window, window[1:]):
            if (p1, r1) == (p0, r0):
                progress = False
        # The very first faulty round must bump the penalty from 0.
        if not window or window[0][1] == 0:
            progress = False
        consistent = not consistency_violations(target.trace,
                                                target.obedient_node_ids())
        return {"target": params["sender"], "evolution": window,
                "counters_progress": progress, "consistent": consistent,
                "passed": progress and consistent}


def run_penalty_reward_experiment(target: int = 2, seed: int = 0,
                                  n_nodes: int = PAPER_N_NODES,
                                  metrics=None) -> Dict[str, Any]:
    """Fault in ``target``'s slot every second round for 20 rounds."""
    return execute(penalty_reward_spec(target, seed=seed, n_nodes=n_nodes),
                   metrics=metrics)


def malicious_spec(byzantine: int, seed: int = 0,
                   n_nodes: int = PAPER_N_NODES,
                   n_rounds: int = 30) -> RunSpec:
    """Declarative form of one malicious-node injection.

    One node broadcasts random local syndromes for the whole run: "Its
    presence is not supposed to induce the other nodes to diagnose
    correct nodes as faulty" (Sec. 8).
    """
    return RunSpec(
        protocol=_default_protocol(n_nodes),
        cluster=ClusterSpec(seed=seed),
        variant=VariantSpec(byzantine_nodes=(byzantine,)),
        n_rounds=n_rounds,
        reducer="validation.malicious",
    )


@register_reducer
class MaliciousReducer:
    """Check that the byzantine node never causes a false accusation.

    The result is ``{"byzantine", "consistent", "no_false_accusation",
    "passed"}``: no obedient node ever diagnosed a correct node as
    faulty, and ``passed`` = both properties.
    """

    name = "validation.malicious"

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Score consistency and the no-false-accusation property."""
        byzantine = spec.variant.byzantine_nodes[0]
        n_nodes = spec.protocol.n_nodes
        obedient = target.obedient_node_ids()
        consistent = not consistency_violations(target.trace, obedient)
        no_false = True
        for node in obedient:
            for d_round, hv in target.health_vectors(node).items():
                for j in range(1, n_nodes + 1):
                    if j != byzantine and hv[j - 1] == 0:
                        no_false = False
        return {"byzantine": byzantine, "consistent": consistent,
                "no_false_accusation": no_false,
                "passed": consistent and no_false}


def run_malicious_experiment(byzantine: int, seed: int = 0,
                             n_nodes: int = PAPER_N_NODES,
                             n_rounds: int = 30,
                             metrics=None) -> Dict[str, Any]:
    """One node broadcasts random local syndromes for the whole run."""
    return execute(malicious_spec(byzantine, seed=seed, n_nodes=n_nodes,
                                  n_rounds=n_rounds), metrics=metrics)


def clique_spec(disturbed_sender: int = 3, seed: int = 0,
                n_nodes: int = PAPER_N_NODES) -> RunSpec:
    """Declarative form of the paper's clique injection.

    The disturbance node sits between Node 1 and the rest of the
    cluster and disconnects the bus during ``disturbed_sender``'s slot:
    only Node 1 misses that frame, forming a minority clique {1}.
    """
    fault = SenderFault(disturbed_sender, kind="asymmetric",
                        rounds=[FAULT_ROUND], detectable_by=[1],
                        cause="disturbance-node")
    return RunSpec(
        protocol=_default_protocol(n_nodes),
        cluster=ClusterSpec(seed=seed),
        variant=VariantSpec(service="membership"),
        scenarios=(ScenarioSpec.from_scenario(fault),),
        n_rounds=FAULT_ROUND + 12,
        reducer="validation.clique",
    )


@register_reducer
class CliqueReducer:
    """Check that the majority clique detects and excludes the minority.

    The result is ``{"minority", "view_latency_rounds", "final_view",
    "detected", "consistent_views", "passed"}``: the rounds from the
    asymmetric fault to the majority's first view change (or None),
    the majority's agreed final view as a sorted list (None if its
    views differ), and ``passed`` when the majority agrees on a view
    that excludes the minority.
    """

    name = "validation.clique"

    def reduce(self, target, spec, state) -> Dict[str, Any]:
        """Score view agreement, exclusion and the view-change latency."""
        fault_round = spec.scenarios[0].params["rounds"][0]
        n_nodes = spec.protocol.n_nodes
        majority = [i for i in range(2, n_nodes + 1)]
        views = [target.services[i].view for i in majority]
        consistent_views = len(set(views)) == 1
        final_view = sorted(views[0]) if consistent_views else None
        detected = all(1 not in v for v in views)
        latency = None
        changes = [rec for rec in target.trace.select(category="view")
                   if rec.node in majority]
        if changes:
            latency = (min(rec.data["round_index"] for rec in changes)
                       - fault_round)
        return {"minority": 1, "view_latency_rounds": latency,
                "final_view": final_view, "detected": detected,
                "consistent_views": consistent_views,
                "passed": (detected and consistent_views
                           and final_view is not None
                           and 1 not in final_view)}


def run_clique_experiment(disturbed_sender: int = 3, seed: int = 0,
                          n_nodes: int = PAPER_N_NODES,
                          metrics=None) -> Dict[str, Any]:
    """Reproduce the paper's clique injection."""
    return execute(clique_spec(disturbed_sender, seed=seed, n_nodes=n_nodes),
                   metrics=metrics)


@dataclass
class CampaignSummary:
    """Aggregate outcome of the Sec. 8 campaign."""

    results: Dict[str, List[bool]] = field(default_factory=dict)

    def add(self, experiment_class: str, passed: bool) -> None:
        """Record one injection's outcome for a class."""
        self.results.setdefault(experiment_class, []).append(passed)

    @property
    def total_injections(self) -> int:
        return sum(len(v) for v in self.results.values())

    @property
    def all_passed(self) -> bool:
        return all(all(v) for v in self.results.values())

    def pass_rates(self) -> Dict[str, float]:
        """Per-class fraction of passed injections."""
        return {cls: sum(v) / len(v) for cls, v in self.results.items()}


#: The Sec. 8 campaign summary as a declarative table (rows are the
#: ``(experiment class, outcomes)`` items of a :class:`CampaignSummary`).
VALIDATION_TABLE = TableSpec(
    name="validation",
    title=lambda s: (f"Sec. 8 validation campaign "
                     f"({s.total_injections} injections)"),
    columns=(
        Column("experiment class", lambda row: row[0]),
        Column("injections", lambda row: len(row[1])),
        Column("pass rate",
               lambda row: f"{100 * sum(row[1]) / len(row[1]):.0f}%"),
    ),
    rows=lambda s: sorted(s.results.items()),
    footer=lambda s: (f"all passed: {s.all_passed}",),
)


def validation_specs(repetitions: int = 100,
                     n_nodes: int = PAPER_N_NODES
                     ) -> List[Tuple[str, RunSpec]]:
    """The Sec. 8 campaign as ``(experiment_class, spec)`` pairs.

    Enumerated in the campaign's canonical order: 12 burst classes,
    the counter update, 4 malicious classes, clique detection —
    ``repetitions`` seeds each.  Every spec is fully serializable, so
    the list is directly submittable to the parallel runner.
    """
    specs: List[Tuple[str, RunSpec]] = []
    burst_lengths = (1, 2, 2 * n_nodes)
    for n_slots in burst_lengths:
        for start_slot in range(1, n_nodes + 1):
            cls = f"burst-{n_slots}-slot{start_slot}"
            for rep in range(repetitions):
                specs.append((cls, burst_spec(n_slots, start_slot, seed=rep,
                                              n_nodes=n_nodes)))
    for rep in range(repetitions):
        specs.append(("penalty-reward",
                      penalty_reward_spec(seed=rep, n_nodes=n_nodes)))
    for byzantine in range(1, n_nodes + 1):
        cls = f"malicious-node{byzantine}"
        for rep in range(repetitions):
            specs.append((cls, malicious_spec(byzantine, seed=rep,
                                              n_nodes=n_nodes)))
    for rep in range(repetitions):
        specs.append(("clique-detection",
                      clique_spec(seed=rep, n_nodes=n_nodes)))
    return specs


__all__ = [
    "PAPER_N_NODES",
    "FAULT_ROUND",
    "CampaignSummary",
    "BurstReducer",
    "PenaltyRewardReducer",
    "MaliciousReducer",
    "CliqueReducer",
    "expected_faulty_slots",
    "burst_spec",
    "penalty_reward_spec",
    "malicious_spec",
    "clique_spec",
    "validation_specs",
    "run_burst_experiment",
    "run_penalty_reward_experiment",
    "run_malicious_experiment",
    "run_clique_experiment",
]
