"""Deterministic discrete-event simulation engine.

The engine is a discrete-event simulator over one binary-heap event
queue, specialised for the needs of this reproduction:

* **Determinism.**  Events are totally ordered by
  ``(time, priority, insertion sequence)``.  The queue is a binary heap
  of ``(time, priority, seq, event)`` tuples, so that order is plain
  tuple comparison.  Running the same scenario with the same seeds
  produces byte-identical traces.
* **Sub-slot resolution.**  Simulation time is a float in seconds.  TDMA
  slot boundaries, per-slot deliveries and application job
  executions are individual events, which lets the time-triggered layer
  express the paper's *unconstrained node scheduling* (diagnostic jobs
  may run at any offset within the round).
* **Bounded floating-point drift.**  All recurring activities derive
  their activation times from integer round/slot indices multiplied by
  the period, never by accumulating increments, so time arithmetic stays
  exact for the simulation horizons used in the experiments.

Typical use::

    engine = Engine()
    engine.schedule(0.0, EventPriority.JOB, lambda: print("hello"))
    engine.run(until=1.0)
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from .events import Event, EventPriority

#: One heap entry: ``(time, priority, seq, event)``.
_Entry = Tuple[float, int, int, Event]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Engine:
    """Deterministic discrete-event scheduler.

    :meth:`schedule` pushes ``(time, priority, seq, event)`` onto a
    binary heap and returns the :class:`Event`; :meth:`run` is the one
    loop that pops and executes them.

    Attributes
    ----------
    now:
        Current simulation time in seconds.  Starts at 0.0.
    """

    def __init__(self, metrics: Optional[Any] = None) -> None:
        self.now: float = 0.0
        self._queue: List[_Entry] = []
        self._running = False
        self._stopped = False
        self._executed_events = 0
        # Optional online observability (repro.obs.MetricsRegistry);
        # kept as a duck-typed argument so the engine stays importable
        # without the obs package.
        self._metrics = metrics
        self._m_on = metrics is not None and metrics.enabled
        self._timing_on = self._m_on and metrics.timing
        self._m_events = (metrics.counter("engine.events_executed")
                          if self._m_on else None)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        priority: int,
        callback: Callable[[], Any],
        description: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute ``time``.

        Scheduling at the current instant is allowed (the event runs
        within the current ``run`` call, after any already-queued events
        with smaller priority); scheduling strictly in the past raises
        :class:`SimulationError`.  ``description`` only labels the
        event's ``repr``.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        event = Event(time, int(priority), callback, description)
        heapq.heappush(self._queue, (time, event.priority, event.seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        priority: int,
        callback: Callable[[], Any],
        description: str = "",
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, priority, callback, description)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties or a bound is hit.

        Parameters
        ----------
        until:
            Inclusive time horizon.  Events scheduled at exactly
            ``until`` execute; later events remain queued.
        max_events:
            Optional safety bound on the number of events executed in
            this call.

        Returns
        -------
        int
            Number of events executed by this call.

        With a timing-enabled metrics registry the call is timed under
        ``engine.run``.
        """
        if self._timing_on:
            with self._metrics.timer("engine.run"):
                return self._run(until, max_events)
        return self._run(until, max_events)

    def _run(self, until: Optional[float],
             max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        # The loop keeps the queue, the bounds and the clock in locals;
        # ``self.now`` is still written before every callback, which
        # reads it.
        queue = self._queue
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        now = self.now
        try:
            while queue:
                if self._stopped:
                    break
                time = queue[0][0]
                if time > horizon:
                    break
                event = pop(queue)[3]
                if event.cancelled:
                    continue
                if time < now:
                    raise SimulationError("event queue corrupted: time went backwards")
                now = self.now = time
                event.callback()
                executed += 1
                if executed >= limit:
                    break
            if until is not None and not self._stopped:
                # Advance the clock to the horizon even if the queue
                # drained earlier, so callers can resume seamlessly.
                self.now = max(self.now, until)
        finally:
            self._running = False
            self._executed_events += executed
            if self._m_on:
                self._m_events.inc(executed)
        return executed

    def stop(self) -> None:
        """Request the current ``run`` call to return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    @property
    def executed_events(self) -> int:
        """Total number of events executed over the engine's lifetime."""
        return self._executed_events

    def peek(self) -> Optional[Event]:
        """The next live event without executing it, or ``None``.

        Cancelled events at the head of the queue are discarded as a
        side effect, exactly as :meth:`run` would skip them.
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][3] if queue else None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        event = self.peek()
        return event.time if event is not None else None


__all__ = ["Engine", "Event", "EventPriority", "SimulationError"]
