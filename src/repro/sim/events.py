"""Event priorities for the time-triggered round driver.

The simulator executes *events* in deterministic order.  An event is an
action at an absolute simulation time with an explicit *priority* used
to break ties between events at the same instant.  Determinism is
essential for this reproduction: the paper's experiments (Sec. 8) are
repeated 100 times per class, and we want each repetition to be exactly
reproducible from its seed.

Priorities encode the causal structure of one TDMA slot:

1. a transmission is placed on the bus (``SLOT_TRANSMIT``),
2. receivers update interface variables and validity bits
   (``SLOT_DELIVER``),
3. application jobs scheduled "after slot j" execute (``JOB``).

Lower numeric priority runs first.  A round start precedes every other
event of its instant (:mod:`repro.sim.engine`).
"""

from __future__ import annotations

import enum


class EventPriority(enum.IntEnum):
    """Tie-breaking order for events at the same instant."""

    #: A sender's communication controller puts a frame on the bus.
    SLOT_TRANSMIT = 10
    #: Receivers' controllers latch the frame into interface variables.
    SLOT_DELIVER = 20
    #: Host jobs (diagnostic jobs, application jobs) execute.
    JOB = 30
