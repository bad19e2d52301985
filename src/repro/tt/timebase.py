"""TDMA timing arithmetic: rounds, slots and their boundaries.

The paper's system model (Sec. 3) is a periodic TDMA schedule: each of
the ``N`` nodes owns one *sending slot* per *TDMA round*.  Node IDs are
``1..N`` and are assigned following the order of the sending slots, so
slot ``i`` of every round belongs to node ``i``.

This module provides :class:`TimeBase`, the single source of truth for
converting between simulation time (seconds) and ``(round, slot)``
coordinates.  All other layers (bus, controllers, schedules, fault
scenarios) use it, so slot arithmetic is implemented exactly once.

Conventions
-----------
* Rounds are 0-based: round ``k`` spans ``[k*T, (k+1)*T)``.
* Slots are 1-based (matching the paper's node IDs): slot ``i`` of
  round ``k`` spans ``[k*T + (i-1)*T/N, k*T + i*T/N)``.
* A frame occupies only the leading ``tx_fraction`` of its slot (real
  TT buses leave inter-frame gaps).  The transmission is placed on the
  bus at the slot *start* and is latched by the receivers (interface
  variables and validity bits updated) at the *end of the transmission
  window*, i.e. "after every sending slot is completed" (Sec. 3).
  The gap after the last transmission window of a round is where a
  diagnostic job can run having observed *all* slots of the round —
  the situation covered by the paper's footnote 1 (such a job is
  treated as executing in round ``k+1`` with ``l_i = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: Tolerance used when mapping continuous times to slot indices; well
#: below any slot length used in practice.
_EPS = 1e-12


@dataclass(frozen=True)
class SlotRef:
    """A global reference to one sending slot.

    ``round_index`` is 0-based; ``slot`` is 1-based and equals the
    sending node's ID.
    """

    round_index: int
    slot: int

    def global_index(self, n_slots: int) -> int:
        """0-based position of this slot in the global slot sequence."""
        return self.round_index * n_slots + (self.slot - 1)


class TimeBase:
    """Timing arithmetic for a TDMA round structure.

    Parameters
    ----------
    n_slots:
        Number of sending slots per round (= number of nodes ``N``).
    round_length:
        Duration ``T`` of one TDMA round, in seconds.  The paper's
        prototypes use ``T = 2.5 ms``.
    tx_fraction:
        Fraction of each slot occupied by the frame transmission; the
        remainder is the inter-frame gap.  Receivers latch the frame at
        ``slot_start + tx_fraction * slot_length``.
    """

    def __init__(self, n_slots: int, round_length: float,
                 tx_fraction: float = 0.8) -> None:
        if n_slots < 2:
            raise ValueError(f"need at least 2 slots per round, got {n_slots}")
        if round_length <= 0:
            raise ValueError(f"round_length must be positive, got {round_length}")
        if not 0.0 < tx_fraction < 1.0:
            raise ValueError(f"tx_fraction must be in (0, 1), got {tx_fraction}")
        self.n_slots = n_slots
        self.round_length = float(round_length)
        self.slot_length = self.round_length / n_slots
        self.tx_fraction = float(tx_fraction)
        # Per-slot offsets from the round start.  Every slot time is
        # ``round_index * round_length + offset`` (slot_start,
        # slot_starts, delivery_time), so all callers get the same
        # floats however they ask.
        self._slot_offsets = tuple((slot - 1) * self.slot_length
                                   for slot in range(1, n_slots + 1))
        self._delivery_offsets = tuple(
            ((slot - 1) + self.tx_fraction) * self.slot_length
            for slot in range(1, n_slots + 1))

    # ------------------------------------------------------------------
    # Time -> coordinates
    # ------------------------------------------------------------------
    def round_of(self, time: float) -> int:
        """Round index containing ``time`` (boundary belongs to the later round)."""
        return int(math.floor(time / self.round_length + _EPS))

    def slot_of(self, time: float) -> SlotRef:
        """The slot containing ``time`` (boundaries belong to the later slot)."""
        gidx = int(math.floor(time / self.slot_length + _EPS))
        return SlotRef(round_index=gidx // self.n_slots,
                       slot=gidx % self.n_slots + 1)

    # ------------------------------------------------------------------
    # Coordinates -> time
    # ------------------------------------------------------------------
    def round_start(self, round_index: int) -> float:
        """Start time of round ``round_index``."""
        return round_index * self.round_length

    def slot_start(self, round_index: int, slot: int) -> float:
        """Start time of slot ``slot`` (1-based) in round ``round_index``.

        This is the instant the frame is placed on the bus.
        """
        self._check_slot(slot)
        return round_index * self.round_length + self._slot_offsets[slot - 1]

    def slot_starts(self, round_index: int) -> List[float]:
        """:meth:`slot_start` of slots ``1..N`` of one round, in order."""
        base = round_index * self.round_length
        return [base + offset for offset in self._slot_offsets]

    def delivery_time(self, round_index: int, slot: int) -> float:
        """Instant receivers latch the frame of the given slot."""
        self._check_slot(slot)
        return (round_index * self.round_length
                + self._delivery_offsets[slot - 1])

    def slot_end(self, round_index: int, slot: int) -> float:
        """End time of slot ``slot`` in round ``round_index``."""
        self._check_slot(slot)
        return round_index * self.round_length + slot * self.slot_length

    def tx_window(self, round_index: int, slot: int) -> Tuple[float, float]:
        """``(start, end)`` of the frame transmission inside the slot."""
        return (self.slot_start(round_index, slot),
                self.delivery_time(round_index, slot))

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def transmissions_between(self, t0: float, t1: float) -> Iterator[SlotRef]:
        """Slots whose *transmission window* intersects ``[t0, t1)``.

        Used by burst fault scenarios to enumerate affected frames: a
        disturbance corrupts a frame iff it overlaps the interval during
        which the frame is physically on the bus.
        """
        if t1 <= t0:
            return
        first = int(math.floor(t0 / self.slot_length + _EPS))
        last = int(math.ceil(t1 / self.slot_length - _EPS)) - 1
        for gidx in range(max(first, 0), last + 1):
            ref = SlotRef(round_index=gidx // self.n_slots,
                          slot=gidx % self.n_slots + 1)
            start, end = self.tx_window(ref.round_index, ref.slot)
            if start < t1 - _EPS and end > t0 + _EPS:
                yield ref

    def duration_in_rounds(self, seconds: float) -> int:
        """Number of complete rounds covering ``seconds`` (ceiling)."""
        return int(math.ceil(seconds / self.round_length - _EPS))

    # ------------------------------------------------------------------
    def _check_slot(self, slot: int) -> None:
        if not 1 <= slot <= self.n_slots:
            raise ValueError(f"slot must be in 1..{self.n_slots}, got {slot}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimeBase(n_slots={self.n_slots}, "
                f"round_length={self.round_length}, "
                f"tx_fraction={self.tx_fraction})")


__all__ = ["TimeBase", "SlotRef"]
