"""A finished run frees itself: nothing is left for the cyclic GC.

:func:`repro.spec.build.execute` closes every event-engine run after
its reducer (``Cluster.close`` drops the round plan, the nodes' job
tables, the controllers' delivery listeners and a timed bus's
wrappers), so reference counting frees what the run built as soon as
``execute`` returns.  With the
collector disabled, weak references to the facade, its ``Cluster``,
``Engine`` and ``Trace`` and every service must therefore be dead when
``execute`` returns, for every spec of the event golden matrix, an
``AdaptiveSaboteur`` spec (whose scenario reads the facade's services)
and a ``validation.penalty-reward`` spec (whose ``prepare`` installs a
hook on a service).
"""

from __future__ import annotations

import gc
import importlib
import weakref
from typing import List

import pytest

from repro.experiments.validation import penalty_reward_spec
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Engine, SimulationError
from repro.spec import RunSpec

from .test_event_engine_golden import SPECS

spec_build = importlib.import_module("repro.spec.build")

_SABOTEUR = {
    "protocol": {"n_nodes": 4, "penalty_threshold": 10,
                 "reward_threshold": 4, "criticalities": [1] * 4},
    "cluster": {"seed": 0},
    "scenarios": [{"type": "AdaptiveSaboteur",
                   "params": {"sender": 2, "margin": 6}}],
    "n_rounds": 30}

CASES = dict(SPECS, **{
    "saboteur": _SABOTEUR,
    "validation-penalty-reward": penalty_reward_spec(seed=3).to_dict()})


@pytest.fixture
def no_collector():
    """Run the test with the cyclic garbage collector disabled."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _watch_builds(monkeypatch) -> List:
    """Record every facade ``execute`` builds (through the module
    global, as production calls it); returns the list it fills."""
    built: List = []
    build = spec_build.build

    def watched(spec, metrics=None):
        target = build(spec, metrics=metrics)
        built.append(target)
        return target

    monkeypatch.setattr(spec_build, "build", watched)
    return built


@pytest.mark.parametrize("name", sorted(CASES))
def test_execute_leaves_nothing_for_the_collector(name, monkeypatch,
                                                  no_collector):
    spec = RunSpec.from_dict(CASES[name])
    built = _watch_builds(monkeypatch)
    # A timing registry also installs the bus's timed wrappers.
    spec_build.execute(spec, metrics=MetricsRegistry(timing=True))
    target = built.pop()
    cluster = target.cluster
    objects = [target, cluster, cluster.engine, cluster.trace,
               *target.services.values()]
    refs = [weakref.ref(obj) for obj in objects]
    del target, cluster, objects
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert alive == []


@pytest.mark.parametrize("service", ["diagnostic", "membership",
                                     "lowlatency"])
def test_close_is_idempotent_and_ends_the_run(service):
    spec = RunSpec.from_dict(dict(_SABOTEUR, variant={"service": service}))
    target = spec_build.build(spec)
    target.run_rounds(8)
    records = target.trace.to_dicts()
    active = {i: list(s.active) for i, s in target.services.items()}
    target.close()
    target.close()
    # What the run produced stays readable.
    assert target.trace.to_dicts() == records
    assert {i: list(s.active) for i, s in target.services.items()} == active
    assert target.cluster.rounds_completed == 8
    with pytest.raises(SimulationError, match="closed"):
        target.run_rounds(1)
    with pytest.raises(SimulationError, match="closed"):
        target.cluster.run_until(target.cluster.now)


def test_a_facade_is_a_context_manager_that_closes():
    spec = RunSpec.from_dict(SPECS["diag-default-clean"])
    with spec_build.build(spec) as target:
        target.run_rounds(2)
    with pytest.raises(SimulationError, match="closed"):
        target.run_rounds(1)
    # A run closed before it started cannot start either.
    unstarted = spec_build.build(spec)
    unstarted.close()
    with pytest.raises(SimulationError, match="closed"):
        unstarted.run_rounds(1)


class _Failing:
    def reduce(self, target, spec, state):
        raise RuntimeError("reducer failed")


def test_execute_closes_the_run_when_reduce_raises(monkeypatch):
    spec = RunSpec.from_dict(SPECS["lowlatency-burst"])
    built = _watch_builds(monkeypatch)
    with pytest.raises(RuntimeError, match="reducer failed"):
        spec_build.execute(spec, reducer=_Failing())
    with pytest.raises(SimulationError, match="closed"):
        built[0].run_rounds(1)


def test_a_closed_engine_refuses_to_start_or_run():
    engine = Engine()
    engine.start(1.0, lambda k: ((), ()))
    engine.run(until=2.5)
    engine.close()
    engine.close()
    assert engine.now == 2.5 and engine.executed_events == 3
    with pytest.raises(SimulationError, match="closed"):
        engine.run(until=3.5)
    with pytest.raises(SimulationError, match="closed"):
        engine.start(1.0, lambda k: ((), ()))
