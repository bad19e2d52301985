"""Shared (optionally replicated) broadcast bus with TDMA access.

The bus connects all communication controllers.  At the start of a
sending slot the owning node's controller hands the bus a frame (or
``None`` if the node does not transmit); the bus consults the
fault-injection layer for the per-receiver outcome on each channel,
composes replicated channels, and schedules the delivery at the end of
the transmission window.

Key modelling points (Sec. 3/4 of the paper):

* The sender is a receiver of its own frame — its self-reception result
  is the *local collision detector* outcome ("checks if messages sent
  by the node can actually be read from the bus").
* Correct nodes are identified by sending time; there is no message
  forging: a frame observed in slot ``i`` is attributed to node ``i``.
* On a replicated bus a receiver accepts the first channel (in index
  order) whose frame passes its local error detection.  A malicious
  frame is by definition locally undetectable, so a malicious channel
  earlier in the order wins over a correct later channel — replication
  helps against benign channel faults, not against malicious ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..faults.injector import InjectionLayer, TransmissionContext
from ..faults.model import ReceptionOutcome, classify_broadcast
from ..sim.engine import Engine
from ..sim.events import EventPriority
from ..sim.trace import Trace
from .frames import Frame
from .timebase import TimeBase

_SLOT_DELIVER = int(EventPriority.SLOT_DELIVER)


class Bus:
    """The TDMA broadcast medium."""

    def __init__(self, engine: Engine, timebase: TimeBase,
                 injection: InjectionLayer, trace: Trace,
                 n_channels: int = 1,
                 metrics: Optional[Any] = None) -> None:
        if n_channels < 1:
            raise ValueError(f"n_channels must be >= 1, got {n_channels}")
        self.engine = engine
        self.timebase = timebase
        self.injection = injection
        self.trace = trace
        self.n_channels = n_channels
        self._receivers: Dict[int, Any] = {}
        self._node_ids: Tuple[int, ...] = ()
        # (node_id, controller.deliver) in ascending node order.
        self._ordered: Tuple[Tuple[int, Any], ...] = ()
        self._delivers: Tuple[Any, ...] = ()
        self._all_valid: Dict[int, int] = {}
        # Online observability (repro.obs): instruments resolved once,
        # per-slot updates guarded by one cached boolean so disabled
        # metrics cost a single truth test on the hot path.
        self._metrics = metrics
        self._m_on = metrics is not None and metrics.enabled
        self._timing_on = self._m_on and metrics.timing
        if self._m_on:
            self._m_slots_total = metrics.counter("bus.slots_total")
            self._m_slots_fast = metrics.counter("bus.slots_fast_path")
            self._m_slots_slow = metrics.counter("bus.slots_slow_path")
            self._m_slots_silent = metrics.counter("bus.slots_silent")
        if self._timing_on:
            # Mirror the Trace fast-off idiom in reverse: only a timed
            # bus pays the wrapper, via instance-attribute rebinding.
            self.transmit = self._transmit_timed  # type: ignore[assignment]
            self.transmit_latched = (  # type: ignore[assignment]
                self._transmit_latched_timed)

    def attach(self, node_id: int, controller: Any) -> None:
        """Register a controller to receive every slot's delivery."""
        self._receivers[node_id] = controller
        # Receiver-order caches, rebuilt on (rare) attach instead of on
        # every transmit.
        self._node_ids = tuple(sorted(self._receivers))
        self._ordered = tuple((i, self._receivers[i].deliver)
                              for i in self._node_ids)
        self._delivers = tuple(deliver for _i, deliver in self._ordered)
        self._all_valid = {i: 1 for i in self._node_ids}

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """Attached node IDs in ascending order (cached at attach time)."""
        return self._node_ids

    # ------------------------------------------------------------------
    def transmit(self, round_index: int, slot: int, frame: Optional[Frame]) -> None:
        """Put ``frame`` on the bus in the given slot.

        Called by the cluster driver at the slot start.  ``frame is
        None`` models a silent sender (crashed process or transmission
        disabled): every receiver observes a missing frame, i.e. a
        locally detectable fault.

        When the injection layer reports the slot quiescent, the
        transmission takes :meth:`transmit_quiescent` instead — same
        trace record, same deliveries, one batched delivery event.
        """
        if (frame is not None
                and self.injection.is_quiescent(round_index, slot,
                                                self.timebase)):
            self.transmit_quiescent(round_index, slot, frame.sender,
                                    frame.payload)
            return
        self._transmit_slow(round_index, slot, frame)

    def transmit_latched(self, round_index: int, slot: int, sender: int,
                         payload: Any) -> None:
        """Transmit a just-latched payload, skipping Frame allocation.

        Entry point used by the cluster driver: the quiescent fast path
        only needs the sender ID and the payload, so no :class:`Frame`
        is materialised for it; a non-quiescent transmission builds the
        Frame and takes the exhaustive slow path.
        """
        if self.injection.is_quiescent(round_index, slot, self.timebase):
            self.transmit_quiescent(round_index, slot, sender, payload)
            return
        self._transmit_slow(round_index, slot,
                            Frame(sender=sender, round_index=round_index,
                                  payload=payload))

    def _transmit_timed(self, round_index: int, slot: int,
                        frame: Optional[Frame]) -> None:
        with self._metrics.timer("bus.transmit"):
            Bus.transmit(self, round_index, slot, frame)

    def _transmit_latched_timed(self, round_index: int, slot: int,
                                sender: int, payload: Any) -> None:
        with self._metrics.timer("bus.transmit"):
            Bus.transmit_latched(self, round_index, slot, sender, payload)

    def _transmit_slow(self, round_index: int, slot: int,
                       frame: Optional[Frame]) -> None:
        if self._m_on:
            self._m_slots_total.inc()
            self._m_slots_slow.inc()
            if frame is None:
                self._m_slots_silent.inc()
        receivers = self.node_ids
        per_receiver: Dict[int, Tuple[bool, Any]] = {}
        causes: List[str] = []

        if frame is None:
            for r in receivers:
                per_receiver[r] = (False, None)
            causes.append("silent-sender")
            outcome_map = {r: ReceptionOutcome.DETECTABLE for r in receivers}
        else:
            # Injection outcome per channel, then channel composition:
            # a receiver takes the first channel whose frame passes its
            # local error detection.
            channel_results = []
            for channel in range(self.n_channels):
                ctx = TransmissionContext(
                    time=self.timebase.slot_start(round_index, slot),
                    round_index=round_index,
                    slot=slot,
                    sender=frame.sender,
                    receivers=receivers,
                    channel=channel,
                    timebase=self.timebase,
                )
                injected = self.injection.apply(ctx)
                channel_results.append(injected)
                causes.extend(injected.causes)

            outcome_map = {}
            for r in receivers:
                accepted: Optional[Tuple[bool, Any]] = None
                composed = ReceptionOutcome.DETECTABLE
                for injected in channel_results:
                    outcome = injected.outcomes[r]
                    if outcome is ReceptionOutcome.OK:
                        accepted = (True, frame.payload)
                        composed = ReceptionOutcome.OK
                        break
                    if outcome is ReceptionOutcome.MALICIOUS:
                        accepted = (True, injected.malicious_payload)
                        composed = ReceptionOutcome.MALICIOUS
                        break
                per_receiver[r] = accepted if accepted is not None else (False, None)
                outcome_map[r] = composed

        sender_id = frame.sender if frame is not None else slot
        # Intern the common all-valid validity map: Trace.record keeps
        # nested dicts by reference, so slow-path slots whose injections
        # all missed share one dict with the fast path instead of
        # retaining a fresh N-entry dict per trace record.
        validity = {r: int(v) for r, (v, _p) in per_receiver.items()}
        if validity == self._all_valid:
            validity = self._all_valid
        self.trace.record(
            self.engine.now, "tx", node=sender_id,
            round_index=round_index, slot=slot,
            sent=frame is not None,
            fault_class=classify_broadcast(outcome_map).value,
            validity=validity,
            causes=tuple(dict.fromkeys(causes)),
        )

        self.engine.schedule(
            self.timebase.delivery_time(round_index, slot), _SLOT_DELIVER,
            lambda: self._deliver(round_index, slot, sender_id, per_receiver))

    def transmit_quiescent(self, round_index: int, slot: int,
                           sender: int, payload: Any) -> None:
        """Fast path for a slot with no active injection.

        The outcome is known without consulting the injection layer:
        every receiver accepts the payload on the first channel.  The
        ``tx`` trace record carries exactly the fields the slow path
        would produce for an all-OK broadcast, and the single batched
        delivery event calls the controllers in the same order at the
        same instant as the slow path's delivery loop.
        """
        if self._m_on:
            self._m_slots_total.inc()
            self._m_slots_fast.inc()
        trace = self.trace
        if trace.level > 0:
            trace.record(
                self.engine.now, "tx", node=sender,
                round_index=round_index, slot=slot,
                sent=True, fault_class="none",
                validity=self._all_valid, causes=(),
            )
        self.engine.schedule(
            self.timebase.delivery_time(round_index, slot), _SLOT_DELIVER,
            lambda: self._deliver_batch(round_index, slot, sender, payload))

    # Deliveries call each controller's ``deliver``, bound at attach,
    # with positional arguments: one call per frame and receiver is the
    # bus's hottest path.
    def _deliver_batch(self, round_index: int, slot: int, sender: int,
                       payload: Any) -> None:
        now = self.engine.now
        for deliver in self._delivers:
            deliver(sender, round_index, slot, True, payload, now)

    def _deliver(self, round_index: int, slot: int, sender: int,
                 per_receiver: Dict[int, Tuple[bool, Any]]) -> None:
        now = self.engine.now
        for node_id, deliver in self._ordered:
            valid, payload = per_receiver[node_id]
            deliver(sender, round_index, slot, valid, payload, now)


__all__ = ["Bus"]
