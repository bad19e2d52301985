"""Event primitives for the discrete-event simulation engine.

The simulator executes *events* in deterministic order.  An event is a
callback scheduled at an absolute simulation time with an explicit
*priority* used to break ties between events scheduled at the same
instant.  Determinism is essential for this reproduction: the paper's
experiments (Sec. 8) are repeated 100 times per class, and we want each
repetition to be exactly reproducible from its seed.

Priorities encode the causal structure of one TDMA slot:

1. a transmission is placed on the bus (``SLOT_TRANSMIT``),
2. receivers update interface variables and validity bits
   (``SLOT_DELIVER``),
3. application jobs scheduled "after slot j" execute (``JOB``),
4. bookkeeping such as trace snapshots run last (``OBSERVER``).

Lower numeric priority runs first.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Tie-breaking order for events scheduled at the same instant."""

    #: Fault-injection directives take effect before the transmission
    #: they affect.
    INJECTOR = 0
    #: A sender's communication controller puts a frame on the bus.
    SLOT_TRANSMIT = 10
    #: Receivers' controllers latch the frame into interface variables.
    SLOT_DELIVER = 20
    #: Host jobs (diagnostic jobs, application jobs) execute.
    JOB = 30
    #: Passive observers (trace snapshots, metric probes).
    OBSERVER = 40
    #: Simulation-control events (stop requests) run last.
    CONTROL = 50


_sequence = itertools.count()


def _noop() -> None:
    return None


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)``; ``seq`` is a global
    monotonically increasing counter, so two events with identical time
    and priority execute in the order they were scheduled.  The engine
    keeps ``(time, priority, seq, event)`` tuples on its heap, so the
    order is decided by plain tuple comparison: ``seq`` is unique, and
    the event object itself is never compared.  The callback and its
    description take no part in the ordering.

    A ``__slots__`` class rather than a dataclass: the engine creates
    one per TDMA slot transmission, delivery and job execution, so its
    construction cost is paid several times per node and round.
    """

    __slots__ = ("time", "priority", "seq", "callback", "description",
                 "cancelled")

    def __init__(self, time: float, priority: int,
                 callback: Callable[[], Any] = _noop,
                 description: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = next(_sequence)
        self.callback = callback
        self.description = description
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.6f}, prio={self.priority}, "
            f"seq={self.seq}, {self.description!r})"
        )
