"""Global communication schedule and per-node job schedules.

The paper deliberately does **not** constrain the scheduling of the
diagnostic jobs: each node may execute its diagnostic job at any point
within the round (Sec. 3, Sec. 5).  Two schedule-derived parameters feed
the protocol's alignment operations:

``l_i``
    The number of sending slots of the *current* round whose frames the
    job has already seen when it reads the interface variables.  Values
    of ``dm_1 .. dm_{l_i}`` were sent in the current round ``k``, values
    of ``dm_{l_i+1} .. dm_N`` in round ``k-1`` (read alignment, Fig. 2).

``send_curr_round_i``
    True iff the job completes before the sending slot of its own node,
    so data it writes to the interface state is transmitted in the same
    round (send alignment, Alg. 1 lines 7-10).

Both are *derived here from the job's offset within the round*, exactly
as a designer would derive them from a static TT schedule; for dynamic
schedules the OS recomputes them each round (Sec. 10).

Footnote 1 of the paper is handled explicitly: a job whose offset falls
after the last transmission window of the round has observed every slot
of the round, is treated as executing in round ``k+1`` with ``l_i = 0``
(``round_shift = 1`` below), and — having run before every sending slot
of that effective round — has ``send_curr_round_i`` true.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Dict, Optional

from .timebase import TimeBase

_EPS = 1e-12


@dataclass(frozen=True)
class ScheduleParams:
    """The schedule constants the protocol needs for one job execution.

    Attributes
    ----------
    l:
        The paper's ``l_i``: interface variables ``1..l`` hold values
        sent in the job's (effective) current round, the rest in the
        previous round.
    send_curr_round:
        The paper's ``send_curr_round_i`` predicate.
    offset:
        Physical offset of the job within the round, in seconds.
    round_shift:
        0 normally; 1 when footnote 1 applies (job after the last
        transmission window), in which case the job belongs logically to
        the *next* round.
    """

    l: int
    send_curr_round: bool
    offset: float
    round_shift: int = 0

    def effective_round(self, physical_round: int) -> int:
        """The round the job logically executes in (footnote 1)."""
        return physical_round + self.round_shift


def params_from_offset(timebase: TimeBase, node_id: int, offset: float) -> ScheduleParams:
    """Derive ``(l_i, send_curr_round_i)`` from a job offset in ``[0, T)``.

    A job at offset ``o`` has seen every slot whose *delivery instant*
    (``slot_start + tx_fraction * slot_length``) is at or before ``o``.
    It completes before its node's sending slot iff ``o`` precedes that
    slot's start.
    """
    if not 0 <= offset < timebase.round_length:
        raise ValueError(
            f"offset must be in [0, {timebase.round_length}), got {offset}")
    s = timebase.slot_length
    # Number of deliveries d_i = ((i-1) + tx_fraction) * s at or before o.
    l = int(math.floor((offset - timebase.tx_fraction * s) / s + _EPS)) + 1
    l = max(0, min(l, timebase.n_slots))
    if l == timebase.n_slots:
        # Footnote 1: the job saw the whole round; treat it as executing
        # in the next round with l = 0.  It necessarily precedes every
        # sending slot of that round.
        return ScheduleParams(l=0, send_curr_round=True, offset=offset,
                              round_shift=1)
    own_slot_start = (node_id - 1) * s
    send_curr = offset < own_slot_start - _EPS
    return ScheduleParams(l=l, send_curr_round=send_curr, offset=offset)


def offset_for_exec_after(timebase: TimeBase, exec_after: int) -> float:
    """Offset placing a job right after slot ``exec_after``'s delivery.

    ``exec_after`` is the number of completed slots of the current round
    the job observes.  For ``exec_after < N`` the resulting ``l_i``
    equals ``exec_after``; ``exec_after == N`` places the job in the gap
    after the round's last transmission window (footnote 1: effective
    ``l_i = 0`` in the next round).
    """
    n = timebase.n_slots
    if not 0 <= exec_after <= n:
        raise ValueError(f"exec_after must be in 0..{n}, got {exec_after}")
    s = timebase.slot_length
    if exec_after == n:
        # Midpoint of the gap after the last transmission window.
        return ((n - 1) + timebase.tx_fraction) * s + 0.5 * (1 - timebase.tx_fraction) * s
    if exec_after == 0:
        # Before the first delivery.
        return 0.5 * timebase.tx_fraction * s
    # Just after delivery exec_after, inside its inter-frame gap.
    return ((exec_after - 1) + timebase.tx_fraction) * s + 0.5 * (1 - timebase.tx_fraction) * s


class NodeSchedule(ABC):
    """Where, within each round, a node executes its diagnostic job."""

    @abstractmethod
    def params(self, round_index: int) -> ScheduleParams:
        """Schedule parameters for the job execution in ``round_index``."""

    @property
    @abstractmethod
    def is_static(self) -> bool:
        """True iff the offset (hence ``l_i``) is constant across rounds."""


class StaticNodeSchedule(NodeSchedule):
    """A design-time fixed job offset (the common TT case, Sec. 8).

    The constants ``l_i`` and ``send_curr_round_i`` are known at design
    time, as in the paper's prototype.
    """

    def __init__(self, timebase: TimeBase, node_id: int,
                 offset: Optional[float] = None,
                 exec_after: Optional[int] = None) -> None:
        if (offset is None) == (exec_after is None):
            raise ValueError("provide exactly one of offset / exec_after")
        if offset is None:
            offset = offset_for_exec_after(timebase, exec_after)
        self._params = params_from_offset(timebase, node_id, offset)

    def params(self, round_index: int) -> ScheduleParams:
        """The (constant) schedule parameters."""
        return self._params

    @property
    def is_static(self) -> bool:
        return True


class DynamicNodeSchedule(NodeSchedule):
    """A per-round random job offset (dynamic OS scheduling, Sec. 10).

    The OS is assumed to report the current ``l_i`` and
    ``send_curr_round_i`` to the application at run time; here that is
    modelled by recomputing the parameters from the drawn offset.  The
    draw for a given round is memoised so that the simulator and the
    protocol observe the same offset.  Only the latest drawn round and
    the one before it are kept: the driver draws round ``k`` at its
    start and the node's job runs within it.
    """

    def __init__(self, timebase: TimeBase, node_id: int, rng: Random) -> None:
        self._timebase = timebase
        self._node_id = node_id
        self._rng = rng
        self._cache: Dict[int, ScheduleParams] = {}
        self._latest = -1

    def params(self, round_index: int) -> ScheduleParams:
        """Draw (or recall) this round's schedule parameters.

        Raises :class:`LookupError` for a round before the previous
        one: its draw is gone, and drawing again would consume an extra
        random number and shift every later offset.
        """
        if round_index not in self._cache:
            if round_index < self._latest - 1:
                raise LookupError(
                    f"node {self._node_id}: the schedule of round "
                    f"{round_index} is no longer kept (latest round "
                    f"{self._latest})")
            # Draw the offset inside the transmission window of a
            # uniformly chosen slot: this yields l uniform over
            # 0..N-1, keeps the draw away from delivery instants (so
            # event ordering is unambiguous), and never lands in the
            # end-of-round gap — a per-round draw there would make the
            # job belong to the *next* round (footnote 1) and the node
            # could then execute twice in one effective round, breaking
            # the once-per-round requirement of the protocol.
            tb = self._timebase
            slot_idx = self._rng.randrange(tb.n_slots)
            frac = (0.1 + 0.6 * self._rng.random()) * tb.tx_fraction
            offset = (slot_idx + frac) * tb.slot_length
            self._cache[round_index] = params_from_offset(
                tb, self._node_id, offset)
            if round_index > self._latest:
                self._latest = round_index
                for old in [r for r in self._cache if r < round_index - 1]:
                    del self._cache[old]
        return self._cache[round_index]

    @property
    def is_static(self) -> bool:
        return False


class GlobalSchedule:
    """The design-time global communication schedule (Sec. 3).

    Binds the :class:`TimeBase` with the slot-to-node assignment (the
    identity map in this model: node ``i`` owns slot ``i``) and holds
    each node's :class:`NodeSchedule`.
    """

    def __init__(self, timebase: TimeBase) -> None:
        self.timebase = timebase
        self.n_nodes = timebase.n_slots
        self._node_schedules: Dict[int, NodeSchedule] = {}

    def set_node_schedule(self, node_id: int, schedule: NodeSchedule) -> None:
        """Install a node's job schedule."""
        self._check_node(node_id)
        self._node_schedules[node_id] = schedule

    def node_schedule(self, node_id: int) -> NodeSchedule:
        """The node's job schedule (created with the default if unset)."""
        self._check_node(node_id)
        if node_id not in self._node_schedules:
            # Default: run the diagnostic job at the start of the round
            # (l_i = 0), before the first delivery.
            self._node_schedules[node_id] = StaticNodeSchedule(
                self.timebase, node_id, exec_after=0)
        return self._node_schedules[node_id]

    def sender_of_slot(self, slot: int) -> int:
        """Node owning a sending slot (identity assignment, Sec. 3)."""
        if not 1 <= slot <= self.n_nodes:
            raise ValueError(f"slot must be in 1..{self.n_nodes}, got {slot}")
        return slot

    def all_send_curr_round(self) -> bool:
        """The global predicate of Alg. 1 line 7.

        True iff every node's schedule is static and completes before
        its own sending slot, so all nodes can disseminate their
        freshly-formed syndromes in the current round (reducing the
        protocol latency by one round).  With any dynamic schedule the
        predicate cannot be evaluated at design time and is
        conservatively false (Sec. 10).
        """
        for node_id in range(1, self.n_nodes + 1):
            sched = self.node_schedule(node_id)
            if not sched.is_static:
                return False
            if not sched.params(0).send_curr_round:
                return False
        return True

    def _check_node(self, node_id: int) -> None:
        if not 1 <= node_id <= self.n_nodes:
            raise ValueError(f"node_id must be in 1..{self.n_nodes}, got {node_id}")


__all__ = [
    "ScheduleParams",
    "params_from_offset",
    "offset_for_exec_after",
    "NodeSchedule",
    "StaticNodeSchedule",
    "DynamicNodeSchedule",
    "GlobalSchedule",
]
