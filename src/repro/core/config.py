"""Protocol configuration and the paper's tuned parameter sets.

The tunables of the diagnostic protocol (Sec. 5/9):

* ``penalty_threshold`` (``P``) — maximum accumulated penalty before a
  node is isolated;
* ``reward_threshold`` (``R``) — number of consecutive fault-free
  rounds after which the memory of previous faults is reset;
* ``criticalities`` (``s_i``) — per-node penalty increment, derived
  from the criticality of the jobs hosted on the node.

Table 2 of the paper reports the experimentally tuned values for the
automotive and aerospace domains; :func:`automotive_config` and
:func:`aerospace_config` reproduce them.  The tuning procedure itself
(how P and s_i are derived from tolerated-outage requirements) lives in
:mod:`repro.analysis.tuning`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Sequence

#: Table 2: reward threshold used in both domains (≈42 min at T=2.5 ms).
PAPER_REWARD_THRESHOLD = 10 ** 6
#: Table 2: automotive penalty threshold.
AUTOMOTIVE_PENALTY_THRESHOLD = 197
#: Table 2: aerospace penalty threshold.
AEROSPACE_PENALTY_THRESHOLD = 17


class CriticalityClass(enum.Enum):
    """Application criticality classes considered in the paper (Sec. 9)."""

    #: Safety Critical: X-by-wire, High Lift, Landing Gear.
    SC = "safety_critical"
    #: Safety Relevant: stability control, driver assistance.
    SR = "safety_relevant"
    #: Non Safety Relevant: comfort, entertainment.
    NSR = "non_safety_relevant"


#: Table 2: automotive criticality levels ``s_i`` per class.
AUTOMOTIVE_CRITICALITY_LEVELS = {
    CriticalityClass.SC: 40,
    CriticalityClass.SR: 6,
    CriticalityClass.NSR: 1,
}

#: Table 2: aerospace criticality level (only SC is on the backbone).
AEROSPACE_CRITICALITY_LEVELS = {
    CriticalityClass.SC: 1,
}

#: Table 2: tolerated transient outages per class, in seconds.  Ranges
#: are represented by their most demanding (lowest) bound, which is the
#: value the tuning must satisfy.
AUTOMOTIVE_TOLERATED_OUTAGE = {
    CriticalityClass.SC: 20e-3,
    CriticalityClass.SR: 100e-3,
    CriticalityClass.NSR: 500e-3,
}

AEROSPACE_TOLERATED_OUTAGE = {
    CriticalityClass.SC: 50e-3,
}


class IsolationMode(enum.Enum):
    """How controllers treat traffic from isolated nodes."""

    #: Paper default: isolated traffic is ignored (validity forced 0).
    IGNORE = "ignore"
    #: Reintegration extension: isolated nodes stay observed so the
    #: diagnostic layer can collect rewards for fault-free behaviour.
    OBSERVE = "observe"


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete configuration of the diagnostic protocol on one cluster.

    Attributes
    ----------
    n_nodes:
        Number of nodes ``N``.
    penalty_threshold:
        ``P`` — a node is isolated when its penalty counter *exceeds* P
        (Alg. 2: ``if penalties[i] > P``).
    reward_threshold:
        ``R`` — penalties are forgotten after R consecutive fault-free
        rounds (Alg. 2: ``if rewards[i] >= R``).
    criticalities:
        Per-node penalty increments ``s_i`` (1-based semantics: entry 0
        corresponds to node 1).
    all_send_curr_round:
        The design-time global predicate of Alg. 1 line 7.  When true
        the diagnosed round is ``k-2``; otherwise ``k-3``.
    startup_rounds:
        First round eligible for diagnosis: analysis is skipped until
        the diagnosed round reaches this index, letting the
        dissemination pipeline fill with genuine observations.
        Must be >= 0.
    isolation_mode:
        Whether isolated nodes are ignored (paper default) or observed
        (reintegration extension).
    halt_on_self_isolation:
        Whether a node that sees itself isolated stops transmitting.
        Defaults to the paper behaviour under IGNORE mode; must be
        False for the reintegration extension to be able to observe
        recovery.
    reintegration_reward_threshold:
        If set (together with ``isolation_mode = OBSERVE``), an isolated
        node is readmitted after this many consecutive fault-free
        rounds (Sec. 9, last paragraph).
    """

    n_nodes: int
    penalty_threshold: int
    reward_threshold: int
    criticalities: Sequence[int]
    all_send_curr_round: bool = False
    startup_rounds: int = 1
    isolation_mode: IsolationMode = IsolationMode.IGNORE
    halt_on_self_isolation: Optional[bool] = None
    reintegration_reward_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if len(self.criticalities) != self.n_nodes:
            raise ValueError(
                f"criticalities must have {self.n_nodes} entries, "
                f"got {len(self.criticalities)}")
        if any(c < 1 for c in self.criticalities):
            raise ValueError("criticalities must be >= 1")
        if self.penalty_threshold < 0:
            raise ValueError("penalty_threshold must be >= 0")
        if self.reward_threshold < 1:
            raise ValueError("reward_threshold must be >= 1")
        if self.startup_rounds < 0:
            raise ValueError(
                f"startup_rounds must be >= 0, got {self.startup_rounds}")
        if (self.reintegration_reward_threshold is not None
                and self.isolation_mode is not IsolationMode.OBSERVE):
            raise ValueError(
                "reintegration requires IsolationMode.OBSERVE so isolated "
                "nodes keep being assessed")

    @property
    def effective_halt_on_self_isolation(self) -> bool:
        """Resolved halt behaviour (defaults by isolation mode)."""
        if self.halt_on_self_isolation is not None:
            return self.halt_on_self_isolation
        return self.isolation_mode is IsolationMode.IGNORE

    def criticality_of(self, node_id: int) -> int:
        """Criticality level ``s_i`` of node ``node_id`` (1-based)."""
        return self.criticalities[node_id - 1]

    def detection_pipeline_rounds(self) -> int:
        """Rounds between a diagnosed round and its analysis round.

        Lemma 1: the health vector computed at round ``k`` refers to
        round ``k-2`` (all nodes disseminate in the formation round) or
        ``k-3`` (send alignment in effect).
        """
        return 2 if self.all_send_curr_round else 3

    def with_updates(self, **changes) -> "ProtocolConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **changes)


def uniform_config(n_nodes: int, penalty_threshold: int = 10,
                   reward_threshold: int = 100, criticality: int = 1,
                   **kwargs) -> ProtocolConfig:
    """A configuration with identical criticality on every node."""
    return ProtocolConfig(
        n_nodes=n_nodes,
        penalty_threshold=penalty_threshold,
        reward_threshold=reward_threshold,
        criticalities=[criticality] * n_nodes,
        **kwargs,
    )


def automotive_config(node_classes: Sequence[CriticalityClass],
                      **kwargs) -> ProtocolConfig:
    """The tuned automotive configuration of Table 2.

    ``node_classes`` assigns each node the criticality class of the
    most critical application it hosts (Sec. 9: "the criticality
    increment for a node was set as the maximum s_i of the applications
    it hosts").
    """
    criticalities = [AUTOMOTIVE_CRITICALITY_LEVELS[c] for c in node_classes]
    return ProtocolConfig(
        n_nodes=len(node_classes),
        penalty_threshold=AUTOMOTIVE_PENALTY_THRESHOLD,
        reward_threshold=PAPER_REWARD_THRESHOLD,
        criticalities=criticalities,
        **kwargs,
    )


def aerospace_config(n_nodes: int, **kwargs) -> ProtocolConfig:
    """The tuned aerospace configuration of Table 2 (all nodes SC)."""
    return ProtocolConfig(
        n_nodes=n_nodes,
        penalty_threshold=AEROSPACE_PENALTY_THRESHOLD,
        reward_threshold=PAPER_REWARD_THRESHOLD,
        criticalities=[AEROSPACE_CRITICALITY_LEVELS[CriticalityClass.SC]] * n_nodes,
        **kwargs,
    )


__all__ = [
    "ProtocolConfig",
    "IsolationMode",
    "CriticalityClass",
    "uniform_config",
    "automotive_config",
    "aerospace_config",
    "PAPER_REWARD_THRESHOLD",
    "AUTOMOTIVE_PENALTY_THRESHOLD",
    "AEROSPACE_PENALTY_THRESHOLD",
    "AUTOMOTIVE_CRITICALITY_LEVELS",
    "AEROSPACE_CRITICALITY_LEVELS",
    "AUTOMOTIVE_TOLERATED_OUTAGE",
    "AEROSPACE_TOLERATED_OUTAGE",
]
