"""Communication controller: the node's interface to the TDMA bus.

Sec. 3 of the paper abstracts inter-node communication as *interface
variables* ``<v_1, ..., v_N>`` that the controllers update automatically
by sending/receiving messages according to the global communication
schedule.  This module implements that abstraction:

* one interface variable (and its *validity bit*) per sender node;
* the validity bit of ``v_i`` at receiver ``j`` is 0 iff ``j`` could not
  receive the last message from ``i`` — stale values are kept but
  flagged invalid, exactly as on the paper's prototype (the
  ``tt_Receiver_Status`` API);
* a *local collision detection* mechanism: the controller observes its
  own frame on the bus and records per-round whether it was readable;
* an *activity mask*: traffic from nodes isolated by the diagnostic
  protocol "must be ignored by the communication controllers of all
  other nodes" — masked senders are treated as permanently invalid.
  A softer ``observe`` mode keeps diagnosing a node without readmitting
  it, used by the reintegration extension (Sec. 9, last paragraph).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..sim.trace import Trace

#: Channel name used by the diagnostic middleware.  Frames multiplex
#: named channels so the add-on protocol shares the node's sending slot
#: with application data "without interference with other
#: functionalities" (Sec. 1).
DIAG_CHANNEL = "diag"


class SenderStatus(enum.Enum):
    """How this controller treats traffic from one sender."""

    #: Normal operation: deliveries update interface state.
    ACTIVE = "active"
    #: Isolated but observed: validity bits still reflect the bus (the
    #: diagnostic layer keeps assessing the node) while the application
    #: must treat the node as down.
    OBSERVED = "observed"
    #: Isolated and ignored: validity forced to 0.
    IGNORED = "ignored"


_IGNORED = SenderStatus.IGNORED

#: Rounds of receive history and collision results a controller keeps.
_HISTORY_DEPTH = 4


class CommunicationController:
    """Per-node controller holding interface variables and validity bits."""

    def __init__(self, node_id: int, n_nodes: int, trace: Trace) -> None:
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.trace = trace
        # 1-based interface state; index 0 unused.
        self._values: List[Any] = [None] * (n_nodes + 1)
        self._validity: List[int] = [0] * (n_nodes + 1)
        self._rounds_sent: List[Optional[int]] = [None] * (n_nodes + 1)
        self._status: List[SenderStatus] = [SenderStatus.ACTIVE] * (n_nodes + 1)
        # Own-slot collision results of the last _HISTORY_DEPTH rounds
        # (the protocol reads at most round k-3).
        self._collision: Dict[int, bool] = {}
        # Receive history: the last four deliveries per sender.
        self._history: Dict[int, Deque[Tuple[int, int, Any]]] = {
            i: deque(maxlen=_HISTORY_DEPTH) for i in range(1, n_nodes + 1)}
        self._out_buffers: Dict[str, Any] = {}
        self.tx_enabled: bool = True
        self._delivery_listeners: List[Any] = []

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def write_interface(self, payload: Any,
                        channel: str = DIAG_CHANNEL) -> None:
        """Stage ``payload`` on a named channel of the node's next frame.

        Mirrors the paper's ``write_iface``: whether the data goes out
        in the current or the next round depends purely on whether the
        write happens before the node's sending slot (send alignment is
        the *protocol's* job; the controller just latches at slot
        start).  Channels multiplex the frame between the diagnostic
        middleware (channel ``"diag"``) and application jobs, so the
        add-on protocol never interferes with application traffic.
        """
        self._out_buffers[channel] = payload

    def build_payload(self) -> Any:
        """Payload for the transmission now starting (latched at slot start)."""
        return dict(self._out_buffers) if self._out_buffers else None

    @staticmethod
    def channel_of(payload: Any, channel: str) -> Any:
        """Extract one channel from a received frame payload.

        Well-formed frames carry a dict of channels; anything else
        (e.g. a payload forged by a malicious fault) is handed to every
        channel as-is — the consuming layer's input validation decides
        what to do with it.
        """
        if isinstance(payload, dict):
            return payload.get(channel)
        return payload

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def deliver(self, sender: int, round_index: int, slot: int,
                valid: bool, payload: Any, time: float = 0.0) -> None:
        """Latch one slot's frame (called by the bus at delivery time).

        The bus calls it once per frame and receiver, with positional
        arguments; keyword calls work the same.
        """
        if sender == self.node_id:
            # Local collision detection: could our own frame be read
            # back from the bus?
            self._collision[round_index] = valid
            self._collision.pop(round_index - _HISTORY_DEPTH, None)
        if self._status[sender] is _IGNORED:
            valid = False
        # The receive history (the deque keeps the last four entries).
        # Real TT controllers expose equivalent status information (the
        # CNI reports the update instant of each interface variable);
        # the protocol only needs it under *dynamic* node scheduling,
        # where the application-level read-alignment buffer alone
        # cannot always reconstruct the previous round (the job's read
        # point may skip over a delivery when l_i grows between rounds).
        if valid:
            self._validity[sender] = 1
            self._values[sender] = payload
            self._rounds_sent[sender] = round_index
            self._history[sender].append((round_index, 1, payload))
        else:
            self._validity[sender] = 0
            self._history[sender].append((round_index, 0, None))
        for listener in self._delivery_listeners:
            listener(sender=sender, round_index=round_index, slot=slot,
                     valid=valid, payload=payload if valid else None,
                     time=time)

    def add_delivery_listener(self, listener: Any) -> None:
        """Register a callback invoked after every slot delivery.

        Used by system-level services (the Sec. 10 low-latency variant)
        that react per slot rather than per round.  The callback
        signature is ``(sender, round_index, slot, valid, payload)``.
        """
        self._delivery_listeners.append(listener)

    # ------------------------------------------------------------------
    # Application-visible reads (the add-on protocol's only inputs)
    # ------------------------------------------------------------------
    def read_interface(self, channel: Optional[str] = None) -> List[Any]:
        """Snapshot of the interface variables, 1-based (index 0 = None).

        With a ``channel``, each sender's entry is that channel's value
        from the sender's last valid frame (:meth:`channel_of`).
        """
        if channel is None:
            return list(self._values)
        return [None] + self.read_channel(channel)[0]

    def read_validity(self) -> List[int]:
        """Snapshot of the validity bits, 1-based (index 0 = 0)."""
        return list(self._validity)

    def read_channel(self, channel: str) -> Tuple[List[Any], List[int]]:
        """One channel's values and the validity bits, both 0-based.

        Entry ``j-1`` belongs to sender ``j``: the same values as
        ``read_interface(channel)[1:]`` and ``read_validity()[1:]``,
        read in one call (the diagnostic job's per-round input).
        """
        return ([v.get(channel) if isinstance(v, dict) else v
                 for v in self._values[1:]],
                self._validity[1:])

    def read_delivery(self, sender: int, round_index: int):
        """The buffered delivery of ``sender``'s slot in ``round_index``.

        Returns ``(validity_bit, payload)`` (payload ``None`` when
        invalid) or ``None`` when that round's delivery is no longer
        buffered.  The controller keeps the last four deliveries per
        sender, so at any point within round ``k`` the deliveries of
        rounds ``k-1`` and ``k-2`` are guaranteed to be available — the
        property the dynamic-scheduling variant of the protocol relies
        on for its read alignment and tag-matched aggregation.
        """
        for rec_round, valid, payload in self._history[sender]:
            if rec_round == round_index:
                return (valid, payload)
        return None

    def collision_ok(self, round_index: int) -> bool:
        """Local collision detector result for the node's slot in a round.

        Returns False when the node did not (or could not) put a
        readable frame on the bus in that round, and for rounds older
        than the last four in which its own slot was delivered (only
        those results are kept).
        """
        return self._collision.get(round_index, False)

    # ------------------------------------------------------------------
    # Activity management (driven by the diagnostic protocol output)
    # ------------------------------------------------------------------
    def set_sender_status(self, sender: int, status: SenderStatus) -> None:
        """Set how traffic from ``sender`` is treated (activity mask)."""
        if not 1 <= sender <= self.n_nodes:
            raise ValueError(f"sender must be in 1..{self.n_nodes}, got {sender}")
        self._status[sender] = status

    def sender_status(self, sender: int) -> SenderStatus:
        """Current activity-mask status of one sender."""
        return self._status[sender]

    def disable_transmission(self) -> None:
        """Stop putting frames on the bus (self-isolation / power-off)."""
        self.tx_enabled = False

    def enable_transmission(self) -> None:
        """Resume putting frames on the bus (after reintegration)."""
        self.tx_enabled = True


__all__ = ["CommunicationController", "SenderStatus"]
