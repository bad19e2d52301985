"""Deterministic time-triggered simulation substrate.

This package provides the simulation engine that the time-triggered
cluster (:mod:`repro.tt`) runs on: a round driver that executes each
round's events in a deterministic order (:mod:`repro.sim.engine`),
named random substreams (:mod:`repro.sim.rng`) and structured trace
recording (:mod:`repro.sim.trace`).
"""

from .engine import Engine, SimulationError
from .events import EventPriority
from .rng import RandomStreams, derive_seed
from .trace import Trace, TraceRecord

__all__ = [
    "Engine",
    "SimulationError",
    "EventPriority",
    "RandomStreams",
    "derive_seed",
    "Trace",
    "TraceRecord",
]
