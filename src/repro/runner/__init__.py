"""Parallel experiment runner.

The paper's evaluation is Monte Carlo at heart: hundreds of
independent, seeded injections per experiment class (Sec. 8), plus
per-class tuning measurements (Sec. 9).  Each run builds its own
cluster from an explicit seed and shares no state with any other run,
so the campaigns are embarrassingly parallel.

This package fans those repetitions across worker processes while
keeping the aggregate results *exactly* equal to the serial campaign:
every task's randomness comes from its spec (an explicit seed), and
the campaign engine merges results in task order, never completion
order.

* :mod:`repro.runner.backends` — streaming dispatch backends for the
  campaign engine: a persistent local pool and a subprocess-per-host
  remote stub with heartbeats (:mod:`repro.runner.heartbeat`), plus
  the structured :class:`TaskError` a failed task leaves in its slot.

The campaigns themselves (the Sec. 8 validation campaign, the Table 2
tuning experiment, Monte Carlo replicates) are named definitions in
:mod:`repro.campaign.definitions`.  The ``repro-diag validate --jobs
N`` / ``table2 --jobs N`` / ``run --jobs N`` / ``campaign run
--dispatch`` CLI flags and the campaign benchmarks reach these
backends only through :func:`repro.campaign.run_campaign`.
"""

from .backends import (
    DISPATCH_BACKENDS,
    Completion,
    DispatchBackend,
    LocalPoolBackend,
    RemoteStubBackend,
    TaskError,
    WorkItem,
    make_backend,
)
from .heartbeat import HeartbeatEmitter, HeartbeatMonitor

__all__ = [
    "DISPATCH_BACKENDS",
    "Completion",
    "DispatchBackend",
    "HeartbeatEmitter",
    "HeartbeatMonitor",
    "LocalPoolBackend",
    "RemoteStubBackend",
    "TaskError",
    "WorkItem",
    "make_backend",
]
