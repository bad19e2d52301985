"""Cluster assembly and round-by-round simulation driving.

:class:`Cluster` wires together the engine, the TDMA time base, the
bus (with fault injection), one node per sending slot, and the trace.
It reproduces the paper's prototype setup programmatically: a set of
nodes (4 in the paper, any ``N >= 2`` here) interconnected via a
(possibly replicated) TT network, each running jobs on top of a TT
operating system, plus a disturbance capability.

The cluster is the engine's round plan.  Round ``k`` holds ``3N``
events:

* one transmission per slot at the slot start (the sender's controller
  latches its out-buffer into a frame, and the bus applies fault
  injection and records the ``tx`` trace record);
* one delivery per slot at the end of its transmission window (the bus
  hands the frame to every receiver);
* one job execution per node at the node's schedule offset.

They run in ``(time, priority, rank)`` order, rank being the slot or
node number.  With static schedules that order is computed once; a
dynamic schedule draws every node's offset at the round start, in node
order, and the round is ordered then.

A run ends with :meth:`Cluster.close`.  The parts of a running cluster
point at each other: the engine's round plan calls back into the
cluster and its bus, each node's job table holds the services that
hold the node, a controller's delivery listeners are services that
hold the controller, and a timed bus keeps wrappers bound to itself.
``close`` drops those back-references, so reference counting frees the
whole run as soon as its last outside reference goes, without waiting
for a pass of the cyclic garbage collector.  The trace, the nodes and
the services stay readable; the cluster can no longer be driven.
"""

from __future__ import annotations

import sys
from random import Random
from typing import Any, Callable, Dict, Optional, Sequence

from ..faults.injector import InjectionLayer, Scenario
from ..sim.engine import Engine, RoundEvents, event_order
from ..sim.events import EventPriority
from ..sim.rng import RandomStreams
from ..sim.trace import Trace
from .bus import Bus
from .controller import CommunicationController
from .node import Job, Node
from .schedule import (
    DynamicNodeSchedule,
    GlobalSchedule,
    NodeSchedule,
    StaticNodeSchedule,
)
from .timebase import TimeBase

#: The paper's prototype TDMA round length (automotive and aerospace).
PAPER_ROUND_LENGTH = 2.5e-3

_SLOT_TRANSMIT = int(EventPriority.SLOT_TRANSMIT)
_SLOT_DELIVER = int(EventPriority.SLOT_DELIVER)
_JOB = int(EventPriority.JOB)


class Cluster:
    """A simulated time-triggered cluster.

    Parameters
    ----------
    n_nodes:
        Number of nodes / sending slots per round.
    round_length:
        TDMA round duration in seconds (paper: 2.5 ms).
    tx_fraction:
        Fraction of a slot occupied by the frame on the bus.
    seed:
        Master seed for all stochastic components.
    n_channels:
        Bus replication degree (Sec. 3: "possibly replicated").
    trace_level:
        Recording level of the cluster-owned :class:`Trace` (ignored
        when an explicit ``trace`` is supplied).  Level 0 drops
        per-slot records without allocating them.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` shared by the
        engine, the bus and (when the caller wires them) the diagnostic
        services.  ``None`` keeps the whole stack unmetered.
    """

    def __init__(self, n_nodes: int, round_length: float = PAPER_ROUND_LENGTH,
                 tx_fraction: float = 0.8, seed: int = 0,
                 n_channels: int = 1, trace: Optional[Trace] = None,
                 trace_level: int = 2,
                 metrics: Optional[Any] = None) -> None:
        self.metrics = metrics
        self.engine = Engine(metrics=metrics)
        self.timebase = TimeBase(n_nodes, round_length, tx_fraction)
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Trace(level=trace_level)
        self.injection = InjectionLayer()
        self.bus = Bus(self.engine, self.timebase, self.injection,
                       self.trace, n_channels=n_channels,
                       metrics=metrics)
        self.schedule = GlobalSchedule(self.timebase)

        self.nodes: Dict[int, Node] = {}
        for node_id in range(1, n_nodes + 1):
            controller = CommunicationController(node_id, n_nodes, self.trace)
            node = Node(node_id, controller, self.schedule.node_schedule(node_id))
            self.nodes[node_id] = node
            self.bus.attach(node_id, controller)

        self._rounds_driven = 0
        self._started = False
        # Margin keeping round-boundary events of round k out of a
        # ``run_rounds`` horizon ending at round k's start: all genuine
        # events of round k-1 end strictly earlier than this margin
        # before k * T (see TimeBase transmission windows).
        self._horizon_margin = 0.05 * (1 - tx_fraction) * self.timebase.slot_length

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.timebase.n_slots

    def node(self, node_id: int) -> Node:
        """The host node owning sending slot ``node_id``."""
        return self.nodes[node_id]

    def install_job(self, node_id: int, job: Job) -> None:
        """Install a per-round job on a node (e.g. a diagnostic job)."""
        self._check_not_started("install jobs")
        self.nodes[node_id].add_job(job)

    def set_static_schedule(self, node_id: int, exec_after: Optional[int] = None,
                            offset: Optional[float] = None) -> None:
        """Give a node a static schedule (design-time ``l_i``)."""
        self._set_schedule(node_id, StaticNodeSchedule(
            self.timebase, node_id, offset=offset, exec_after=exec_after))

    def set_dynamic_schedule(self, node_id: int,
                             rng: Optional[Random] = None) -> None:
        """Give a node a dynamic (per-round random) schedule (Sec. 10)."""
        if rng is None:
            rng = self.streams.stream(f"dynamic-schedule-{node_id}")
        self._set_schedule(node_id, DynamicNodeSchedule(self.timebase, node_id, rng))

    def _set_schedule(self, node_id: int, schedule: NodeSchedule) -> None:
        self._check_not_started("change schedules")
        self.schedule.set_node_schedule(node_id, schedule)
        self.nodes[node_id].schedule = schedule

    def add_scenario(self, scenario: Scenario) -> None:
        """Register a fault scenario (may be added mid-simulation).

        Scenarios expressed in slot coordinates (e.g. an unbound
        :class:`~repro.faults.scenarios.SlotBurst`) resolve their
        absolute times against this cluster's time base here.
        """
        bind = getattr(scenario, "bind", None)
        if callable(bind):
            bind(self.timebase)
        self.injection.add(scenario)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_rounds(self, n_rounds: int) -> None:
        """Advance the simulation by ``n_rounds`` complete rounds."""
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        self._ensure_started()
        target = self._rounds_driven + n_rounds
        horizon = self.timebase.round_start(target) - self._horizon_margin
        self.engine.run(until=horizon)
        self._count_rounds(target)

    def run_until(self, time: float) -> None:
        """Advance the simulation to absolute ``time`` (seconds)."""
        self._ensure_started()
        self.engine.run(until=time)
        self._count_rounds(max(self._rounds_driven,
                               self.timebase.round_of(self.engine.now)))

    def _count_rounds(self, completed: int) -> None:
        """Record that the first ``completed`` rounds are complete."""
        if self.metrics is not None:
            self.metrics.counter("cluster.rounds_driven").inc(
                completed - self._rounds_driven)
        self._rounds_driven = completed

    @property
    def rounds_completed(self) -> int:
        """Number of rounds completed by :meth:`run_rounds` and
        :meth:`run_until`."""
        return self._rounds_driven

    @property
    def now(self) -> float:
        return self.engine.now

    def close(self) -> None:
        """End the run (see the module docstring).  Idempotent."""
        self.engine.close()
        self.bus.close()
        for node in self.nodes.values():
            node.jobs.clear()
            node.controller.remove_delivery_listeners()

    # ------------------------------------------------------------------
    # Round plan
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        # What a round's events need and what cannot change once the
        # simulation runs (senders, controllers, node schedules) is
        # resolved here once instead of in every round.  Events are
        # listed transmissions, deliveries, jobs, each in slot or node
        # order; the list index is the event's rank.
        tb = self.timebase
        slots = range(1, self.n_nodes + 1)
        nodes = list(self.nodes.values())
        self._actions = ([self._transmit_action(slot) for slot in slots]
                         + [self._delivery_action(slot) for slot in slots]
                         + [self._job_action(node) for node in nodes])
        self._priorities = ([_SLOT_TRANSMIT] * len(slots)
                            + [_SLOT_DELIVER] * len(slots)
                            + [_JOB] * len(nodes))
        # Slot starts and delivery instants as offsets from the round
        # start (round 0's times are the offsets themselves).
        self._bus_offsets = ([tb.slot_start(0, slot) for slot in slots]
                             + [tb.delivery_time(0, slot) for slot in slots])
        self._schedules = [node.schedule for node in nodes]
        self._static_rounds = 0
        if all(schedule.is_static for schedule in self._schedules):
            offsets = self._bus_offsets + [schedule.params(0).offset
                                           for schedule in self._schedules]
            order = event_order(offsets, self._priorities)
            self._static_offsets = [offsets[i] for i in order]
            self._static_actions = tuple(self._actions[i] for i in order)
            self._static_rounds = _exact_rounds(self._static_offsets,
                                                [self._priorities[i]
                                                 for i in order],
                                                order, tb.round_length)
        self.engine.start(tb.round_length, self._round_events)

    def _check_not_started(self, what: str) -> None:
        if self._started:
            raise RuntimeError(f"cannot {what} after the simulation started")

    def _round_events(self, round_index: int) -> RoundEvents:
        """Round ``round_index``'s events in execution order.

        Every time is ``round_index * T + offset``, the expression the
        time base uses, so events of equal offset tie exactly.
        """
        base = round_index * self.timebase.round_length
        if round_index < self._static_rounds:
            return ([base + offset for offset in self._static_offsets],
                    self._static_actions)
        # Draw this round's job offsets, in node order, and order the
        # round by (time, priority, rank).
        offsets = self._bus_offsets + [schedule.params(round_index).offset
                                       for schedule in self._schedules]
        times = [base + offset for offset in offsets]
        order = event_order(times, self._priorities)
        return ([times[i] for i in order], [self._actions[i] for i in order])

    def _transmit_action(self, slot: int) -> Callable[[int], None]:
        sender = self.schedule.sender_of_slot(slot)
        controller = self.nodes[sender].controller
        bus = self.bus

        def transmit(round_index: int) -> None:
            if controller.tx_enabled:
                # transmit_latched only materialises a Frame if the
                # transmission leaves the quiescent fast path.
                bus.transmit_latched(round_index, slot, sender,
                                     controller.build_payload())
            else:
                bus.transmit(round_index, slot, None)

        return transmit

    def _delivery_action(self, slot: int) -> Callable[[int], None]:
        deliver = self.bus.deliver

        def delivery(round_index: int) -> None:
            deliver(round_index, slot)

        return delivery

    def _job_action(self, node: Node) -> Callable[[int], None]:
        execute_jobs = node.execute_jobs
        engine = self.engine

        def execute(round_index: int) -> None:
            execute_jobs(round_index, engine.now)

        return execute


def _exact_rounds(offsets: Sequence[float], priorities: Sequence[int],
                  ranks: Sequence[int], round_length: float) -> float:
    """Rounds over which a static round's once-computed order is exact.

    That order sorts events by offset, but round ``k`` runs by the time
    ``k * T + offset``.  Two events whose offsets differ may round to
    the same time once ``k * T`` is large enough; they then run by
    priority and rank, which flips them if the later offset has the
    smaller ``(priority, rank)``.  Float addition never swaps two
    times, and it keeps two offsets ``g`` apart distinct while ``g``
    exceeds one unit in the last place of ``(k + 1) * T``.  The bound
    keeps a factor of four below that, and the static order serves
    rounds below it (for any real schedule, more rounds than a
    simulation runs); later rounds are ordered one by one.
    """
    limit = float("inf")
    for a in range(len(offsets) - 1):
        gap = offsets[a + 1] - offsets[a]
        if gap > 0 and ((priorities[a], ranks[a])
                        > (priorities[a + 1], ranks[a + 1])):
            limit = min(limit, gap / (4 * sys.float_info.epsilon
                                      * round_length) - 1)
    return limit


__all__ = ["Cluster", "PAPER_ROUND_LENGTH"]
