"""Host node: the computer running jobs on top of a TT operating system.

A node bundles a communication controller, a node schedule and a job
table.  The paper's add-on protocol runs as one *diagnostic job* per
node, executed once per round at an arbitrary (unconstrained) point of
the node's internal schedule; application jobs can coexist in the same
table.

The :class:`JobContext` passed to a job at each execution exposes
exactly the observables the paper allows an application-level module:
the interface variables with their validity bits (via the controller),
the OS-provided schedule parameters ``l_i`` / ``send_curr_round_i``
(Sec. 10: "in case of dynamic scheduling we require the OS to provide
this information to the application at run-time"), and the current
round number.
"""

from __future__ import annotations

from typing import List, Protocol

from ..faults.model import NodeGroundTruth
from .controller import CommunicationController
from .schedule import NodeSchedule, ScheduleParams


class JobContext:
    """Execution context handed to a job once per round.

    A slotted record: one is built per node and round.

    Attributes
    ----------
    node:
        The hosting :class:`Node`.
    round_index:
        The *effective* round of this execution (footnote 1 of the
        paper applied: a job running after the last transmission window
        of physical round ``k`` gets ``round_index = k + 1``).
    physical_round:
        The round whose window contains the execution instant.
    params:
        The OS-reported schedule parameters for this execution.
    time:
        Simulation time of the execution.
    """

    __slots__ = ("node", "round_index", "physical_round", "params", "time")

    def __init__(self, node: "Node", round_index: int, physical_round: int,
                 params: ScheduleParams, time: float) -> None:
        self.node = node
        self.round_index = round_index
        self.physical_round = physical_round
        self.params = params
        self.time = time

    @property
    def controller(self) -> CommunicationController:
        return self.node.controller


class Job(Protocol):
    """Anything executable once per round on a node."""

    def execute(self, ctx: JobContext) -> None:
        """Run the job for the round described by ``ctx``."""
        ...  # pragma: no cover - protocol definition


class Node:
    """One host computer attached to the TDMA bus."""

    def __init__(self, node_id: int, controller: CommunicationController,
                 schedule: NodeSchedule) -> None:
        self.node_id = node_id
        self.controller = controller
        self.schedule = schedule
        self.jobs: List[Job] = []
        self.ground_truth = NodeGroundTruth(node_id=node_id)

    def add_job(self, job: Job) -> None:
        """Install a job; jobs run in installation order each round."""
        self.jobs.append(job)

    def execute_jobs(self, physical_round: int, time: float) -> None:
        """Run all jobs for the given round (called by the cluster driver)."""
        params = self.schedule.params(physical_round)
        ctx = JobContext(self, physical_round + params.round_shift,
                         physical_round, params, time)
        for job in self.jobs:
            job.execute(ctx)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id})"


__all__ = ["Node", "Job", "JobContext"]
