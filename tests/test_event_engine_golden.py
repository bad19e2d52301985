"""Byte-level goldens for the event engine: traces and counters per spec.

The other equivalence tests compare two paths of one tree (fast vs slow
bus path, packed analysis vs the Eqn. 1 reference, event vs vectorized
backend).  A change to the shared engine, bus or trace that moves both
sides alike passes all of them.  This module pins the event engine
itself: for each spec of a small matrix (three services; default,
``exec_after`` and dynamic schedules; a Byzantine node; asymmetric
faults under both membership flavours; every fault family the
benchmark workloads use) it stores the trace record count, the sha256
of the canonical trace JSON and the sha256 of the metrics snapshot.

``tests/data/golden_event_traces.json`` is regenerated only on purpose,
after a change that is meant to move an event, a trace record or a
counter::

    PYTHONPATH=src python tests/test_event_engine_golden.py
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.obs.registry import MetricsRegistry
from repro.spec import RunSpec

# The module, not the function ``repro.spec`` re-exports under the
# same name: specs build through the one module-global entry point.
spec_build = importlib.import_module("repro.spec.build")

GOLDEN = Path(__file__).parent / "data" / "golden_event_traces.json"


class Unprobed:
    """A scenario with no ``is_quiescent`` probe and no directives.

    ``InjectionLayer.is_quiescent`` treats a scenario without a probe
    as active and stops at the first active one, so with this scenario
    registered first it answers False for every slot before it consults
    any other probe: the bus takes its slow path everywhere, and no
    outcome changes.
    """

    def directives(self, ctx):
        return ()


def force_slow_path(cluster) -> None:
    """Send every slot of a :class:`~repro.tt.cluster.Cluster` down the
    bus's slow path by registering :class:`Unprobed` first."""
    injection = cluster.injection
    scenarios = injection.scenarios
    for scenario in scenarios:
        injection.remove(scenario)
    injection.add(Unprobed())
    for scenario in scenarios:
        injection.add(scenario)


def _spec(n: int, rounds: int, seed: int, scenarios: List[dict] = (),
          *, penalty: int = 3, reward: int = 10,
          schedule: Optional[dict] = None, variant: Optional[dict] = None,
          trace_level: int = 2, n_channels: int = 1,
          **protocol: Any) -> dict:
    data = {"protocol": dict({"n_nodes": n, "penalty_threshold": penalty,
                              "reward_threshold": reward,
                              "criticalities": [1] * n}, **protocol),
            "cluster": {"seed": seed, "trace_level": trace_level,
                        "n_channels": n_channels},
            "scenarios": list(scenarios),
            "n_rounds": rounds}
    if schedule is not None:
        data["schedule"] = schedule
    if variant is not None:
        data["variant"] = variant
    return data


def _sender(sender: int, kind: str, **params: Any) -> dict:
    return {"type": "SenderFault",
            "params": dict({"sender": sender, "kind": kind}, **params)}


def _burst(round_index: int, slot: int, n_slots: int) -> dict:
    return {"type": "SlotBurst", "params": {
        "round_index": round_index, "slot": slot, "n_slots": n_slots}}


def _gilbert(p_gb: float) -> dict:
    return {"type": "GilbertElliottChannel", "params": {
        "p_gb": p_gb, "p_bg": 0.5, "error_good": 0.0, "error_bad": 1.0,
        "rng_stream": "golden-ge"}}


_POISSON = {"type": "PoissonTransients", "params": {
    "rate": 50.0, "burst_length": 0.0005, "start": 0.0,
    "cause": "transient", "rng_stream": "golden-pt"}}

#: name -> RunSpec dict.  Sizes stay small so the module runs in about
#: a second; the shapes cover every path a served event job takes.
SPECS: Dict[str, dict] = {
    "diag-default-clean": _spec(4, 24, 11),
    "diag-default-benign-observe": _spec(
        5, 30, 12, [_sender(2, "benign", from_round=6)],
        isolation_mode="observe"),
    "diag-exec-after-malicious": _spec(
        6, 30, 13, [_sender(4, "malicious", from_round=5)],
        schedule={"kind": "static", "exec_after": 2}),
    "diag-malicious-payload": _spec(
        4, 24, 28, [_sender(2, "malicious", rounds=[5, 6, 7, 8],
                            payload={"diag": [1, 1, 0, 1]})]),
    "diag-all-send-curr-burst": _spec(
        4, 24, 14, [_burst(6, 2, 2)],
        schedule={"kind": "static", "exec_after": 4},
        all_send_curr_round=True),
    "diag-per-node-asymmetric": _spec(
        4, 24, 15, [_sender(3, "asymmetric", rounds=[5, 6, 7],
                            detectable_by=[1])],
        schedule={"kind": "static", "exec_after": [0, 1, 3, 2]}),
    "diag-dynamic-burst": _spec(
        5, 30, 16, [_burst(5, 3, 10)], schedule={"kind": "dynamic"}),
    "diag-byzantine": _spec(
        5, 24, 17, variant={"byzantine_nodes": [3]}),
    "diag-gilbert-elliott": _spec(6, 40, 18, [_gilbert(0.1)],
                                  penalty=10, reward=50),
    "diag-poisson": _spec(5, 40, 19, [_POISSON], penalty=1, reward=5),
    "diag-slow-path": _spec(
        4, 24, 20, [_sender(1, "benign", rounds=[4]), _burst(8, 3, 1)]),
    "diag-two-channels": _spec(
        4, 20, 21, [{"type": "ChannelBurst", "params": {
            "channel": 0, "start": 0.0125, "duration": 0.004}},
            _burst(9, 1, 1)], n_channels=2),
    "diag-level1-gilbert": _spec(4, 20, 22, [_gilbert(0.05)],
                                 penalty=2, reward=5, trace_level=1),
    "diag-level0-benign": _spec(
        4, 30, 23, [_sender(2, "benign", from_round=4)], trace_level=0),
    "membership-burst": _spec(
        5, 24, 24, [_burst(6, 4, 1)], variant={"service": "membership"}),
    "membership-asymmetric": _spec(
        5, 24, 30, [_sender(3, "asymmetric", rounds=[6, 7],
                            detectable_by=[1])],
        variant={"service": "membership"}),
    "membership-dynamic-benign": _spec(
        4, 30, 25, [_sender(2, "benign", from_round=8)],
        schedule={"kind": "dynamic"}, variant={"service": "membership"}),
    "lowlatency-burst": _spec(
        4, 20, 26, [_burst(5, 2, 2)], variant={"service": "lowlatency"}),
    "lowlatency-membership-asymmetric": _spec(
        5, 24, 31, [_sender(3, "asymmetric", rounds=[6, 7],
                            detectable_by=[1])],
        variant={"service": "lowlatency", "lowlatency_membership": True}),
    "lowlatency-membership-gilbert": _spec(
        5, 24, 27, [_gilbert(0.1)],
        variant={"service": "lowlatency", "lowlatency_membership": True}),
}


def _sha256(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(name: str) -> Dict[str, Any]:
    """Run one named spec on the event engine and digest what it produced."""
    spec = RunSpec.from_dict(SPECS[name])
    registry = MetricsRegistry()
    target = spec_build.build(spec, metrics=registry)
    if name == "diag-slow-path":
        force_slow_path(target.cluster)
    target.run_rounds(spec.n_rounds)
    records = target.trace.to_dicts()
    return {"spec_digest": spec.full_digest(),
            "records": len(records),
            "trace_sha256": _sha256(records),
            "metrics_sha256": _sha256(registry.snapshot())}


def _golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_spec_matrix():
    assert sorted(_golden()["specs"]) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_event_engine_matches_golden(name):
    assert fingerprint(name) == _golden()["specs"][name]


def test_matrix_exercises_faults():
    """The matrix is not vacuous: faulty specs isolate or accuse."""
    golden = _golden()["specs"]
    assert golden["diag-default-clean"]["records"] > 0
    spec = RunSpec.from_dict(SPECS["diag-default-benign-observe"])
    target = spec_build.build(spec)
    target.run_rounds(spec.n_rounds)
    assert target.isolation_records(isolated=2)
    # The asymmetric membership entries pin the order of minority
    # accusations, which only ``clique`` records show.
    for name in ("membership-asymmetric",
                 "lowlatency-membership-asymmetric"):
        spec = RunSpec.from_dict(SPECS[name])
        target = spec_build.build(spec)
        target.run_rounds(spec.n_rounds)
        assert target.trace.select(category="clique"), name


def regenerate() -> None:
    document = {"specs": {name: fingerprint(name) for name in sorted(SPECS)}}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}", file=sys.stderr)
