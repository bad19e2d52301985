"""Deterministic time-triggered round driver.

The simulated cluster is time-triggered: node *i* owns slot *i* of every
TDMA round and runs its jobs at offsets fixed by its schedule (Sec. 3),
so every event of a round, and their order, is known before the round
starts.  The engine therefore keeps no event queue.  It walks one round
at a time through a *round plan*, with a cursor:

* **Rounds.**  Round ``k`` starts at ``k * period``.  The round start is
  itself an event (the first of its instant): it asks the plan for the
  round's events, ``(times, actions)`` in execution order, and each
  action is then called with ``k`` at its time.  A plan may draw
  per-round quantities there (dynamic schedules draw their offsets).
* **Determinism.**  A plan orders a round's events by
  ``(time, priority, rank)`` (:func:`event_order`): time first, then
  :class:`~repro.sim.events.EventPriority`, then the plan's own rank.
  Running the same scenario with the same seeds produces byte-identical
  traces.
* **Resumable horizons.**  :meth:`Engine.run` executes every event at
  or before its horizon (inclusive), advances the clock to the horizon
  and keeps the cursor, so the next call resumes at the next event,
  whether the horizon fell on a slot start, a delivery, a job or
  between events.
* **Bounded floating-point drift.**  All recurring activities derive
  their times from the round index times the period plus a fixed
  offset, never by accumulating increments, so time arithmetic stays
  exact for the simulation horizons used in the experiments.
* **An explicit end.**  The plan's actions reach the objects the run
  drives (for a cluster, the cluster itself), so an engine holding them
  forms a reference cycle with its owner.  :meth:`Engine.close` drops
  the plan and the loaded round; what the run built is then freed by
  reference counting as soon as its owner lets go of it, not in a
  later pass of the cyclic garbage collector.

Typical use::

    engine = Engine()
    engine.start(1.0, lambda k: ([k + 0.5], [lambda k: print("round", k)]))
    engine.run(until=2.5)
    engine.close()
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

#: A round's events in execution order: their times and their actions
#: (each called with the round index).
RoundEvents = Tuple[Sequence[float], Sequence[Callable[[int], Any]]]


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. time going backwards)."""


def event_order(times: Sequence[float],
                priorities: Sequence[int]) -> List[int]:
    """Indices of a round's events in execution order.

    Events run by time, then by priority (lower first), then by their
    index in the sequences, which is the plan's rank.
    """
    return sorted(range(len(times)),
                  key=lambda i: (times[i], priorities[i], i))


class Engine:
    """Deterministic time-triggered round driver.

    :meth:`start` installs the round plan; :meth:`run` executes rounds
    up to an inclusive horizon and may be called again to resume.

    Attributes
    ----------
    now:
        Current simulation time in seconds.  Starts at 0.0.
    """

    def __init__(self, metrics: Optional[Any] = None) -> None:
        self.now: float = 0.0
        self._running = False
        self._closed = False
        self._executed_events = 0
        self._period = 0.0
        self._round_events: Optional[Callable[[int], RoundEvents]] = None
        # The cursor: the round whose events are loaded, those events,
        # and the index of the next one to run.  Before the first round
        # starts, an empty round -1 is loaded.
        self._round = -1
        self._times: Sequence[float] = ()
        self._actions: Sequence[Callable[[int], Any]] = ()
        self._cursor = 0
        # Optional online observability (repro.obs.MetricsRegistry);
        # kept as a duck-typed argument so the engine stays importable
        # without the obs package.
        self._metrics = metrics
        self._m_on = metrics is not None and metrics.enabled
        self._timing_on = self._m_on and metrics.timing
        self._m_events = (metrics.counter("engine.events_executed")
                          if self._m_on else None)

    def start(self, period: float,
              round_events: Callable[[int], RoundEvents]) -> None:
        """Install the round plan: rounds of ``period`` seconds whose
        events ``round_events(k)`` returns at the start of round ``k``.

        Every event of round ``k`` must fall within ``[k * period,
        (k + 1) * period)``; a later one raises :class:`SimulationError`
        when its round starts.
        """
        if self._closed:
            raise SimulationError("the engine is closed")
        if self._round_events is not None:
            raise SimulationError("the engine already has a round plan")
        if not period > 0:
            raise ValueError(f"period must be positive, got {period}")
        self._period = period
        self._round_events = round_events

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> int:
        """Run every event at or before ``until`` (inclusive).

        Afterwards the clock reads ``until`` (or stays later, if it
        already was), and the cursor waits on the first event after
        it.  Returns the number of events executed by this call,
        counting each round start as one.

        With a timing-enabled metrics registry the call is timed under
        ``engine.run``.
        """
        if self._timing_on:
            with self._metrics.timer("engine.run"):
                return self._run(until)
        return self._run(until)

    def _run(self, horizon: float) -> int:
        if self._running:
            raise SimulationError("engine is not reentrant")
        round_events = self._round_events
        if round_events is None:
            raise SimulationError(
                "the engine is closed: its run has ended" if self._closed
                else "the engine has no round plan; call start()")
        self._running = True
        executed = 0
        # The loop keeps the cursor and the clock in locals; ``self.now``
        # is still written before every action, which reads it.
        period = self._period
        k = self._round
        times = self._times
        actions = self._actions
        i = self._cursor
        n = len(times)
        now = self.now
        try:
            while True:
                if i == n:
                    # The next round start.
                    time = (k + 1) * period
                    if time > horizon:
                        break
                    if time < now:
                        raise SimulationError(
                            f"time went backwards: round {k + 1} starts at "
                            f"t={time}, before now={now}")
                    now = self.now = time
                    times, actions = round_events(k + 1)
                    k += 1
                    n = len(times)
                    i = 0
                    executed += 1
                    if n and times[-1] >= (k + 1) * period:
                        raise SimulationError(
                            f"round {k} has an event at t={times[-1]}, "
                            f"not before round {k + 1} starts")
                    continue
                time = times[i]
                if time > horizon:
                    break
                if time < now:
                    raise SimulationError(
                        f"time went backwards: event at t={time} in round "
                        f"{k}, before now={now}")
                now = self.now = time
                i += 1
                actions[i - 1](k)
                executed += 1
            if horizon > self.now:
                self.now = horizon
        finally:
            self._round = k
            self._times = times
            self._actions = actions
            self._cursor = i
            self._running = False
            self._executed_events += executed
            if self._m_on:
                self._m_events.inc(executed)
        return executed

    def close(self) -> None:
        """End the run: drop the round plan and the loaded round.

        The clock and :attr:`executed_events` stay readable;
        :meth:`start` and :meth:`run` raise :class:`SimulationError`
        afterwards.  Idempotent.
        """
        self._closed = True
        self._round_events = None
        self._times = self._actions = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def executed_events(self) -> int:
        """Total number of events executed over the engine's lifetime."""
        return self._executed_events


__all__ = ["Engine", "RoundEvents", "SimulationError", "event_order"]
