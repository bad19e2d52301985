"""The cluster's round driver keeps the time-triggered event order.

Two pins on :meth:`Cluster.run_rounds` / :meth:`Cluster.run_until`:

* a run split by ``run_until`` at a slot start, a delivery instant, a
  job instant, an instant between events and a round boundary, then
  finished with ``run_rounds``, equals the straight run: same trace,
  same metrics (``cluster.rounds_driven`` included) and the same
  number of executed events (for the three services, a dynamic
  schedule and a two-channel bus);
* a job placed exactly on a delivery instant runs after that delivery,
  and one placed exactly on a slot start runs after that transmission
  (events of one instant run by priority: transmit, deliver, job), and
  jobs of one instant run in node order; instants are the float sums
  ``k * T + offset``, so offsets that differ can still tie.
"""

from __future__ import annotations

import importlib
import math
from typing import Any, Dict, List

import pytest

from repro.obs.registry import MetricsRegistry
from repro.spec import RunSpec
from repro.tt.cluster import Cluster

spec_build = importlib.import_module("repro.spec.build")

ROUNDS = 12
N = 4


def _spec(*scenarios: dict, schedule=None, variant=None,
          n_channels: int = 1) -> dict:
    data = {"protocol": {"n_nodes": N, "penalty_threshold": 2,
                         "reward_threshold": 5, "criticalities": [1] * N},
            "cluster": {"seed": 3, "n_channels": n_channels},
            "scenarios": list(scenarios),
            "n_rounds": ROUNDS}
    if schedule is not None:
        data["schedule"] = schedule
    if variant is not None:
        data["variant"] = variant
    return data


_BURST = {"type": "SlotBurst", "params": {
    "round_index": 4, "slot": 2, "n_slots": 3}}
_ASYMMETRIC = {"type": "SenderFault", "params": {
    "sender": 3, "kind": "asymmetric", "rounds": [5, 6, 7],
    "detectable_by": [1]}}
_MIXED = {"kind": "static", "exec_after": [0, 1, 3, 2]}

CASES: Dict[str, dict] = {
    "diagnostic": _spec(_BURST, _ASYMMETRIC, schedule=_MIXED),
    "membership": _spec(_BURST, _ASYMMETRIC, schedule=_MIXED,
                        variant={"service": "membership"}),
    "lowlatency": _spec(_BURST, _ASYMMETRIC,
                        variant={"service": "lowlatency",
                                 "lowlatency_membership": True}),
    "dynamic": _spec(_BURST, _ASYMMETRIC, schedule={"kind": "dynamic"}),
    "two-channels": _spec(
        {"type": "ChannelBurst", "params": {
            "channel": 0, "start": 0.0075, "duration": 0.004}},
        _BURST, schedule=_MIXED, n_channels=2),
}


def _build(name: str):
    spec = RunSpec.from_dict(CASES[name])
    registry = MetricsRegistry()
    return spec_build.build(spec, metrics=registry), registry


def _outcome(target, registry) -> Dict[str, Any]:
    return {"trace": target.trace.to_dicts(), "metrics": registry.snapshot(),
            "events": target.cluster.engine.executed_events,
            "now": target.cluster.now}


def _split_instants(target) -> List[float]:
    """Instants of rounds 5-8 to stop at, read off a straight run."""
    tb = target.cluster.timebase
    jobs = [r["time"] for r in target.trace.to_dicts()
            if r["category"] == "syndrome" and r["round_index"] == 6]
    gap_start = tb.delivery_time(7, N)
    instants = [
        tb.slot_start(5, 2),                          # a slot start
        tb.delivery_time(5, 3),                       # a delivery instant
        gap_start + 0.3 * (tb.round_start(8) - gap_start),  # between events
        tb.round_start(8),                            # a round boundary
    ]
    instants += jobs[:1]                              # a job instant
    return sorted(instants)


@pytest.mark.parametrize("name", sorted(CASES))
def test_split_run_equals_straight_run(name):
    straight, registry = _build(name)
    straight.run_rounds(ROUNDS)
    expected = _outcome(straight, registry)
    assert expected["metrics"]["counters"]["cluster.rounds_driven"] == ROUNDS

    split, registry = _build(name)
    for instant in _split_instants(straight):
        split.cluster.run_until(instant)
        assert split.cluster.now == instant
    assert split.cluster.rounds_completed == 8
    split.run_rounds(ROUNDS - split.cluster.rounds_completed)
    assert _outcome(split, registry) == expected


def test_split_instants_cover_every_kind_of_event():
    straight, _registry = _build("diagnostic")
    straight.run_rounds(ROUNDS)
    instants = _split_instants(straight)
    assert len(set(instants)) == 5


class _Recorder:
    """A job logging, per execution, whether round k's slot-3 frame
    was already delivered, and the execution instant."""

    def __init__(self, log: list, node_id: int) -> None:
        self.log = log
        self.node_id = node_id

    def execute(self, ctx) -> None:
        k = ctx.physical_round
        delivered = ctx.controller.read_delivery(3, k) is not None
        self.log.append((k, self.node_id, delivered, ctx.time))


def test_job_on_a_delivery_instant_runs_after_that_delivery():
    cluster = Cluster(N, seed=0)
    tb = cluster.timebase
    log: list = []
    # Nodes 1 and 2 run exactly on slot 3's delivery instant, node 3 a
    # hair before it.
    on_delivery = tb.delivery_time(0, 3)
    cluster.set_static_schedule(1, offset=on_delivery)
    cluster.set_static_schedule(2, offset=on_delivery)
    cluster.set_static_schedule(3, offset=on_delivery * (1 - 1e-9))
    for node_id in (1, 2, 3):
        cluster.install_job(node_id, _Recorder(log, node_id))
    cluster.run_rounds(40)
    assert len(log) == 3 * 40
    for k in range(40):
        entries = [entry for entry in log if entry[0] == k]
        # Node 3 runs first, before the delivery; nodes 1 and 2 run on
        # the delivery instant, after it, in node order.
        assert [(node, seen) for _k, node, seen, _t in entries] == [
            (3, False), (1, True), (2, True)]
        assert entries[1][3] == entries[2][3] == tb.delivery_time(k, 3)


def test_offsets_that_round_to_one_instant_tie():
    # A job one ulp before slot 3's delivery precedes it at offset
    # level; at absolute times k * T + offset the two coincide in some
    # rounds, and there the delivery runs first, by priority.
    cluster = Cluster(N, seed=0)
    tb = cluster.timebase
    on_delivery = tb.delivery_time(0, 3)
    cluster.set_static_schedule(2, offset=math.nextafter(on_delivery, 0.0))
    log: list = []
    cluster.install_job(2, _Recorder(log, 2))
    cluster.run_rounds(40)
    ties = [tb.round_start(k) + math.nextafter(on_delivery, 0.0)
            == tb.delivery_time(k, 3) for k in range(40)]
    assert 0 < sum(ties) < 40
    assert [seen for _k, _node, seen, _t in log] == ties


def test_job_on_a_slot_start_runs_after_that_transmission():
    cluster = Cluster(N, seed=0)
    tb = cluster.timebase
    seen: list = []

    class TxProbe:
        def execute(self, ctx) -> None:
            tx = cluster.trace.last("tx")
            seen.append((ctx.physical_round, tx.data["round_index"],
                         tx.data["slot"]))

    cluster.set_static_schedule(4, offset=tb.slot_start(0, 2))
    cluster.install_job(4, TxProbe())
    cluster.run_rounds(10)
    assert seen == [(k, k, 2) for k in range(10)]
