"""Unit tests for the time-triggered round driver."""

import pytest

from repro.sim.engine import Engine, SimulationError, event_order
from repro.sim.events import EventPriority

PERIOD = 1.0


def start_logging(engine, log, events_by_round):
    """Give ``engine`` a plan whose events append ``(round, label, now)``.

    ``events_by_round`` maps a round to its ``(offset, label)`` events
    in execution order; other rounds are empty.
    """
    def action(label):
        return lambda k: log.append((k, label, engine.now))

    def round_events(k):
        events = events_by_round.get(k, ())
        return ([k * PERIOD + offset for offset, _label in events],
                [action(label) for _offset, label in events])

    engine.start(PERIOD, round_events)


def test_runs_events_in_time_order():
    # A plan lists its events in any order; event_order sorts them.
    log = []
    engine = Engine()
    offsets, labels = [0.5, 0.1, 0.25], ["c", "a", "b"]
    order = event_order(offsets, [EventPriority.JOB] * 3)
    assert order == [1, 2, 0]
    start_logging(engine, log, {0: [(offsets[i], labels[i]) for i in order]})
    engine.run(until=1.0)
    assert [label for _k, label, _t in log] == ["a", "b", "c"]


def test_priority_breaks_ties_at_same_time():
    priorities = [EventPriority.JOB, EventPriority.SLOT_TRANSMIT,
                  EventPriority.SLOT_DELIVER]
    order = event_order([1.0] * 3, priorities)
    assert [priorities[i] for i in order] == [
        EventPriority.SLOT_TRANSMIT, EventPriority.SLOT_DELIVER,
        EventPriority.JOB]


def test_insertion_order_breaks_full_ties():
    # Equal time and priority: the plan's rank (list order) decides.
    assert event_order([1.0] * 10, [30] * 10) == list(range(10))


def test_schedule_at_now_is_allowed():
    # Events at the instant the clock already reads run, in order.
    log = []
    engine = Engine()
    start_logging(engine, log, {0: [(0.5, "first"), (0.5, "later")]})
    engine.run(until=0.5)
    assert [label for _k, label, _t in log] == ["first", "later"]
    assert engine.now == 0.5


def test_runs_each_round_in_plan_order():
    log = []
    engine = Engine()
    start_logging(engine, log, {0: [(0.1, "a"), (0.5, "b")], 1: [(0.2, "c")]})
    engine.run(until=2.0)
    assert [(k, label) for k, label, _t in log] == [
        (0, "a"), (0, "b"), (1, "c")]


def test_now_advances_to_event_times():
    log = []
    engine = Engine()
    start_logging(engine, log, {0: [(0.5, "x")], 2: [(0.5, "y")]})
    engine.run(until=2.75)
    assert [t for _k, _label, t in log] == [0.5, 2.5]
    assert engine.now == 2.75


def test_until_is_inclusive_and_advances_clock():
    log = []
    engine = Engine()
    start_logging(engine, log, {0: [(0.25, 1), (0.5, 2)]})
    engine.run(until=0.25)
    assert [label for _k, label, _t in log] == [1]
    assert engine.now == 0.25
    engine.run(until=5.0)
    assert [label for _k, label, _t in log] == [1, 2]
    # The clock advances to the horizon even when no event is due.
    assert engine.now == 5.0


def test_resumes_at_the_cursor():
    # Horizons on an event, between events and on a round start split
    # the run; the events run once each, in the same order.
    events = {k: [(0.0, (k, "a")), (0.3, (k, "b")), (0.6, (k, "c"))]
              for k in range(3)}
    straight, split = [], []
    engine = Engine()
    start_logging(engine, straight, events)
    engine.run(until=2.9)
    engine = Engine()
    start_logging(engine, split, events)
    for horizon in (0.3, 0.45, 1.0, 1.0, 1.6, 2.9):
        engine.run(until=horizon)
    assert split == straight
    assert len(straight) == 9


def test_horizon_in_the_past_runs_nothing():
    log = []
    engine = Engine()
    start_logging(engine, log, {0: [(0.5, "x")]})
    engine.run(until=0.75)
    assert engine.run(until=0.1) == 0
    assert engine.now == 0.75


def test_round_starts_count_as_events():
    engine = Engine()
    start_logging(engine, [], {0: [(0.5, "x")], 1: [(0.5, "y")]})
    # Round starts at 0.0, 1.0 and 2.0, plus two events.
    assert engine.run(until=2.0) == 5
    assert engine.executed_events == 5


def test_executed_events_counter_accumulates():
    engine = Engine()
    start_logging(engine, [], {0: [(0.5, "x")], 1: [(0.5, "y")]})
    engine.run(until=0.75)
    engine.run(until=1.75)
    assert engine.executed_events == 4


def test_schedule_in_past_rejected():
    # A plan whose events go back in time trips the clock check.
    engine = Engine()
    engine.start(PERIOD, lambda k: ([k + 0.5, k + 0.25],
                                    [lambda k: None, lambda k: None]))
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_event_past_its_round_rejected():
    engine = Engine()
    engine.start(PERIOD, lambda k: ([k + 1.0], [lambda k: None]))
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_run_needs_a_round_plan():
    with pytest.raises(SimulationError):
        Engine().run(until=1.0)


def test_plan_installed_once():
    engine = Engine()
    engine.start(PERIOD, lambda k: ((), ()))
    with pytest.raises(SimulationError):
        engine.start(PERIOD, lambda k: ((), ()))


def test_not_reentrant():
    engine = Engine()

    def reenter(k):
        engine.run(until=2.0)

    engine.start(PERIOD, lambda k: ([k + 0.5], [reenter]))
    with pytest.raises(SimulationError):
        engine.run(until=1.0)
