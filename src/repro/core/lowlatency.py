"""The low-latency system-level protocol variant (Sec. 10).

The add-on protocol trades latency for portability: with unconstrained
scheduling the worst-case detection latency is four TDMA rounds.  The
paper sketches a system-level variant that constrains the node
scheduling to get the latency down to **one round** (two rounds for
membership): "each node keeps sending its local syndrome at each
sending slot, but the analysis is executed right after each slot and
refers to a single previous slot".

This module implements that variant.  Instead of a once-per-round job,
the service hooks every slot delivery (a system-level capability —
precisely why this variant is less portable):

* each node continuously maintains a *sliding syndrome window*: its
  local opinion on the most recent completed instance of every slot;
  the window rides in the node's frame every round;
* a frame sent by node ``i`` in round ``k`` therefore reports on slots
  ``1..i-1`` of round ``k`` and ``i..N`` of round ``k-1``;
* right after slot ``s`` of round ``k`` is delivered, every node has
  all ``N-1`` external opinions on slot ``s`` of round ``k-1`` and runs
  the hybrid-majority analysis for it — detection latency exactly one
  round;
* the per-slot verdict feeds the same penalty/reward counters.

With ``membership = True`` the variant adds per-slot minority
accusations, giving a membership service with two-round latency.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..sim.trace import Trace
from ..tt.controller import DIAG_CHANNEL, SenderStatus
from ..tt.node import Node
from .config import IsolationMode, ProtocolConfig
from .diagnostic import TRACE_ALL, TRACE_FAULTS
from .penalty_reward import PenaltyRewardState
from .syndrome import is_valid_syndrome
from .voting import BOTTOM, h_maj_counts

SlotKey = Tuple[int, int]


class LowLatencyDiagnosticService:
    """Per-slot diagnosis with one-round detection latency (Sec. 10).

    The per-slot report store holds two bitmasks per diagnosed slot —
    who reported, and their 0/1 votes — and the verdict comes from
    their popcount tallies (:func:`~repro.core.voting.h_maj_counts`).
    """

    def __init__(self, config: ProtocolConfig, node: Node, trace: Trace,
                 membership: bool = False,
                 trace_level: int = TRACE_ALL,
                 metrics: Optional[Any] = None) -> None:
        if config.n_nodes != node.controller.n_nodes:
            raise ValueError("config.n_nodes does not match the cluster size")
        self.config = config
        self.node = node
        self.node_id = node.node_id
        self.trace = trace
        self.trace_level = trace_level
        self.membership = membership
        self.metrics = metrics
        self._m_on = metrics is not None and metrics.enabled
        if self._m_on:
            self._m_slot_analyses = metrics.counter("lowlat.slot_analyses")
            self._m_isolations = metrics.counter("diag.isolations")
            self._m_popcount_votes = metrics.counter("vote.popcount_votes")

        n = config.n_nodes
        #: Local opinion on the most recent completed instance of each
        #: slot (1 until observed otherwise).
        self._window: List[int] = [1] * n
        #: Own validity observations per (round, slot), for fallbacks.
        self._vbits: Dict[SlotKey, int] = {}
        #: External opinions: ``[reporter_mask, ones_mask]`` per
        #: diagnosed slot (bit ``m-1`` = reporter ``m``).
        self._report_masks: Dict[SlotKey, List[int]] = {}
        self.active: List[int] = [1] * n
        self.pr = PenaltyRewardState(config, metrics=metrics)
        self._accused: Set[int] = set()
        self.view: FrozenSet[int] = frozenset(range(1, n + 1))
        self.view_history: List[Tuple[Optional[SlotKey], FrozenSet[int]]] = [
            (None, self.view)]
        #: Per-slot verdict log for latency measurements:
        #: (round, slot) -> verdict.
        self.verdicts: Dict[SlotKey, int] = {}

        self._now: float = 0.0
        node.controller.add_delivery_listener(self._on_delivery)
        node.controller.write_interface(tuple(self._window))

    # ------------------------------------------------------------------
    def _on_delivery(self, sender: int, round_index: int, slot: int,
                     valid: bool, payload, time: float = 0.0) -> None:
        n = self.config.n_nodes
        self._now = time
        # 1. Record the local observation and refresh the outgoing
        #    window (the frame of our next slot must carry it).
        opinion = 1 if valid else 0
        self._vbits[(round_index, slot)] = opinion
        self._window[slot - 1] = opinion
        self._write_window()

        payload = self.node.controller.channel_of(payload, DIAG_CHANNEL)
        # 2. Harvest the reporter's opinions.  Entry s of the payload is
        #    the reporter's opinion on the most recent completed
        #    instance of slot s before this frame: round ``round_index``
        #    for s < slot, round ``round_index - 1`` for s >= slot.
        if valid and is_valid_syndrome(payload, n) and self.active[sender - 1]:
            bit = 1 << (sender - 1)
            masks_by_key = self._report_masks
            for s in range(1, n + 1):
                r = round_index if s < slot else round_index - 1
                masks = masks_by_key.get((r, s))
                if masks is None:
                    masks = masks_by_key[(r, s)] = [0, 0]
                masks[0] |= bit
                if payload[s - 1]:
                    masks[1] |= bit
                else:
                    masks[1] &= ~bit

        # 3. Analyse the slot that just became fully reported:
        #    slot ``slot`` of the previous round.
        target = (round_index - 1, slot)
        if target[0] >= 0:
            self._analyse_slot(target)
        self._prune(round_index)

    def _write_window(self) -> None:
        window = list(self._window)
        for j in self._accused:
            window[j - 1] = 0
        self.node.controller.write_interface(tuple(window))

    # ------------------------------------------------------------------
    def _analyse_slot(self, target: SlotKey) -> None:
        if target in self.verdicts:
            return
        r, s = target
        # Two popcounts decide the slot: reporters minus the accused's
        # self-opinion, split into 1 and 0 votes.
        masks = self._report_masks.get(target)
        voters = ones_mask = 0
        if masks is not None:
            voters = masks[0] & ~(1 << (s - 1))
            ones_mask = masks[1]
        ones = (ones_mask & voters).bit_count()
        diag, _ = h_maj_counts(ones, voters.bit_count() - ones)
        if self._m_on:
            self._m_popcount_votes.inc()
        if diag is BOTTOM:
            if s == self.node_id:
                diag = 1 if self.node.controller.collision_ok(r) else 0
            else:
                diag = self._vbits.get(target, 1)
        self.verdicts[target] = diag
        if self._m_on:
            self._m_slot_analyses.inc()
        if self.trace_level >= TRACE_ALL or (
                self.trace_level >= TRACE_FAULTS and diag == 0):
            self.trace.record(self._now, "cons_slot", node=self.node_id,
                              diagnosed_round=r, slot=s, verdict=diag)

        if self.membership:
            self._minority_accusations(target, diag)

        # Penalty/reward per slot verdict.
        act = self.pr.update_single(s, faulty=(diag == 0))
        if act == 0 and self.active[s - 1] == 1:
            self.active[s - 1] = 0
            self._apply_isolation(s, target)
        if self.membership and diag == 0 and s in self.view:
            self.view = self.view - {s}
            self.view_history.append((target, self.view))
            self.trace.record(self._now, "view", node=self.node_id,
                              diagnosed_round=r, slot=s,
                              view=tuple(sorted(self.view)))
            self._accused.discard(s)
            self._write_window()

    def _minority_accusations(self, target: SlotKey, diag: int) -> None:
        """Accuse every active reporter whose vote on ``target`` lost.

        Reporters are visited in frame-delivery order for the diagnosed
        slot — senders ``s+1..N`` (frames of round ``r``) then ``1..s``
        (frames of round ``r+1``) — so accusation traces follow the
        order in which the reports arrived.
        """
        masks = self._report_masks.get(target)
        if masks is None:
            return
        present, ones_mask = masks
        r, s = target
        n = self.config.n_nodes
        for reporter in chain(range(s + 1, n + 1), range(1, s + 1)):
            if reporter == s:
                continue
            bit = 1 << (reporter - 1)
            if not present & bit:
                continue
            vote = 1 if ones_mask & bit else 0
            if vote != diag and self.active[reporter - 1]:
                if reporter not in self._accused:
                    self._accused.add(reporter)
                    self.trace.record(self._now, "clique", node=self.node_id,
                                      diagnosed_round=r, slot=s,
                                      accused=(reporter,))
                    self._write_window()

    def _apply_isolation(self, j: int, target: SlotKey) -> None:
        controller = self.node.controller
        if self.config.isolation_mode is IsolationMode.IGNORE:
            controller.set_sender_status(j, SenderStatus.IGNORED)
        else:
            controller.set_sender_status(j, SenderStatus.OBSERVED)
        if j == self.node_id and self.config.effective_halt_on_self_isolation:
            controller.disable_transmission()
        if self._m_on:
            self._m_isolations.inc()
        self.trace.record(self._now, "isolation", node=self.node_id,
                          diagnosed_round=target[0], slot=target[1],
                          isolated=j, penalty=self.pr.penalties[j - 1])

    # ------------------------------------------------------------------
    def _prune(self, round_index: int) -> None:
        # Working stores are bounded to the pipeline depth; the verdict
        # log is kept whole (two ints per slot) for latency analysis.
        horizon = round_index - 3
        for store in (self._vbits, self._report_masks):
            stale = [key for key in store if key[0] < horizon]
            for key in stale:
                del store[key]

    # ------------------------------------------------------------------
    def active_nodes(self) -> Tuple[int, ...]:
        """IDs of nodes this service currently considers active."""
        return tuple(j for j in range(1, self.config.n_nodes + 1)
                     if self.active[j - 1] == 1)

    def verdict_for(self, round_index: int, slot: int) -> Optional[int]:
        """The per-slot verdict, if still retained."""
        return self.verdicts.get((round_index, slot))


__all__ = ["LowLatencyDiagnosticService"]
