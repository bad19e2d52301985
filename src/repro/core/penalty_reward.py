"""The penalty/reward algorithm (Alg. 2).

The p/r algorithm converts the per-round consistent health vectors into
isolation decisions while filtering external transient faults.  Each
node keeps, *for every node in the system*, a penalty and a reward
counter:

* when node ``i`` is diagnosed faulty, ``penalties[i]`` grows by the
  node's criticality level ``s_i`` and ``rewards[i]`` resets;
* when node ``i`` is diagnosed healthy while carrying penalties,
  ``rewards[i]`` grows by one; after ``R`` consecutive fault-free
  rounds both counters reset — the previous faults are considered
  uncorrelated external transients and forgotten;
* when ``penalties[i]`` exceeds ``P`` the node is marked for isolation.

Because the health vectors are consistent across obedient nodes
(Theorem 1), every obedient node's counters evolve identically and
isolation is decided in the same round everywhere.

:func:`rounds_to_isolation` gives the closed-form behaviour under a
continuous fault, used by the tuning experiments (Sec. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from .config import ProtocolConfig


@dataclass
class PenaltyRewardState:
    """Replicated counter state of Alg. 2 on one node.

    The instance is deterministic: identical inputs produce identical
    counter evolutions, which tests use to assert the consistency of
    isolation decisions across nodes.  ``metrics`` (an optional
    :class:`repro.obs.MetricsRegistry`) counts counter movements
    online; the fault-free path stays one boolean test per update.
    """

    config: ProtocolConfig
    metrics: Optional[Any] = None
    penalties: List[int] = field(init=False)
    rewards: List[int] = field(init=False)

    def __post_init__(self) -> None:
        n = self.config.n_nodes
        self.penalties = [0] * n
        self.rewards = [0] * n
        metrics = self.metrics
        self._m_on = metrics is not None and metrics.enabled
        if self._m_on:
            self._m_penalty = metrics.counter("pr.penalty_increments")
            self._m_reward = metrics.counter("pr.reward_increments")
            self._m_forget = metrics.counter("pr.forget_resets")
            self._m_isolate = metrics.counter("pr.isolation_verdicts")

    def update(self, cons_hv: Sequence[int]) -> List[int]:
        """One round of Alg. 2.

        ``cons_hv`` is the consistent health vector for the diagnosed
        round (entry ``j-1`` for node ``j``; 0 = faulty).  Returns
        ``curr_act``: 1 entries for nodes that may stay active this
        round, 0 for nodes whose penalty crossed the threshold.  The
        caller ANDs this into its activity vector (Alg. 1 line 15).
        """
        cfg = self.config
        if len(cons_hv) != cfg.n_nodes:
            raise ValueError(
                f"cons_hv must have {cfg.n_nodes} entries, got {len(cons_hv)}")
        curr_act = [1] * cfg.n_nodes
        if 0 not in cons_hv and not any(self.penalties):
            # A healthy vector with no penalty pending moves no counter
            # (the loop below would take neither branch for any node).
            return curr_act
        m_on = self._m_on
        for idx in range(cfg.n_nodes):
            if cons_hv[idx] == 0:
                self.penalties[idx] += cfg.criticalities[idx]
                self.rewards[idx] = 0
                if m_on:
                    self._m_penalty.inc()
                if self.penalties[idx] > cfg.penalty_threshold:
                    curr_act[idx] = 0
                    if m_on:
                        self._m_isolate.inc()
            elif self.penalties[idx] > 0:
                self.rewards[idx] += 1
                if m_on:
                    self._m_reward.inc()
                if self.rewards[idx] >= cfg.reward_threshold:
                    self.penalties[idx] = 0
                    self.rewards[idx] = 0
                    if m_on:
                        self._m_forget.inc()
        return curr_act

    def update_single(self, node_id: int, faulty: bool) -> int:
        """Alg. 2's per-node body for one slot verdict.

        Used by the low-latency variant (Sec. 10), which produces one
        health decision per *slot* instead of one vector per round.
        Returns the node's ``curr_act`` entry (0 = isolate).
        """
        cfg = self.config
        idx = node_id - 1
        m_on = self._m_on
        if faulty:
            self.penalties[idx] += cfg.criticalities[idx]
            self.rewards[idx] = 0
            if m_on:
                self._m_penalty.inc()
            if self.penalties[idx] > cfg.penalty_threshold:
                if m_on:
                    self._m_isolate.inc()
                return 0
        elif self.penalties[idx] > 0:
            self.rewards[idx] += 1
            if m_on:
                self._m_reward.inc()
            if self.rewards[idx] >= cfg.reward_threshold:
                self.penalties[idx] = 0
                self.rewards[idx] = 0
                if m_on:
                    self._m_forget.inc()
        return 1

    def counters_of(self, node_id: int) -> tuple:
        """``(penalty, reward)`` counters for a node (1-based)."""
        return (self.penalties[node_id - 1], self.rewards[node_id - 1])

    def reset_node(self, node_id: int) -> None:
        """Clear both counters for a node (used on reintegration)."""
        self.penalties[node_id - 1] = 0
        self.rewards[node_id - 1] = 0

    def snapshot(self) -> dict:
        """Counters as a plain dict, for traces and assertions."""
        return {"penalties": list(self.penalties), "rewards": list(self.rewards)}


def faulty_rounds_to_isolation(penalty_threshold: int, criticality: int) -> int:
    """Consecutive faulty rounds before a node is isolated.

    Alg. 2 isolates when the penalty *exceeds* ``P``, so a node with
    criticality ``s`` is isolated on faulty round ``floor(P / s) + 1``.
    """
    if criticality < 1:
        raise ValueError("criticality must be >= 1")
    return penalty_threshold // criticality + 1


def rounds_to_isolation(config: ProtocolConfig, node_id: int) -> int:
    """Faulty-round budget of ``node_id`` under its configured criticality."""
    return faulty_rounds_to_isolation(config.penalty_threshold,
                                      config.criticality_of(node_id))


def isolation_latency_seconds(config: ProtocolConfig, node_id: int,
                              round_length: float) -> float:
    """Worst-case diagnostic latency for a continuously faulty node.

    From the first faulty round to the isolation decision: the
    faulty-round budget plus the dissemination/analysis pipeline depth
    (Lemma 1), in seconds.
    """
    rounds = rounds_to_isolation(config, node_id)
    return (rounds + config.detection_pipeline_rounds()) * round_length


def transient_correlation_probability(rate: float, reward_threshold: int,
                                      round_length: float) -> float:
    """Probability that two independent transients are correlated.

    After a transient fault hits a node, its penalties survive for
    ``R`` fault-free rounds.  With external transients arriving as a
    Poisson process of ``rate`` (per second), the probability that the
    next independent transient arrives inside the window — and is thus
    incorrectly correlated with the previous one — is
    ``1 - exp(-rate * R * T)``.  This is the tradeoff plotted in Fig. 3.
    """
    if rate < 0:
        raise ValueError("rate must be >= 0")
    window = reward_threshold * round_length
    return 1.0 - math.exp(-rate * window)


__all__ = [
    "PenaltyRewardState",
    "faulty_rounds_to_isolation",
    "rounds_to_isolation",
    "isolation_latency_seconds",
    "transient_correlation_probability",
]
