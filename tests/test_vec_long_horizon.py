"""Long-horizon replicate batches: every replicate equals its event run.

The three-way fuzz (``test_backend_equivalence_fuzz.py``) runs 14
rounds, mostly as one-replicate batches.  Monte Carlo jobs are the
opposite shape: a batch of seed-shifted replicates run for 100-200
rounds, in which faults recur, p/r counters climb and forget, and
replicates isolate at different rounds or not at all.  Here every
replicate of such a batch is compared with the event engine run of its
own seed, on every observable and on the semantic metrics snapshot.

The cases use the fault mixes of the ``montecarlo-vec`` benchmark
workload (Gilbert-Elliott and Poisson channels, benign and malicious
sender faults, slot bursts), its p/r thresholds from (1, 5) to
(40, 100), 2 to 12 replicates at N = 8 and 16, and reintegration on
and off.  One batch holds enough per-round metering to cross the
kernel's flush bound several times.
"""

import random
from dataclasses import replace

import pytest

from repro.core.service import attach_reintegration_everywhere
from repro.obs import MetricsRegistry
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, ScenarioSpec
from repro.spec.build import build
from repro.vec import NUMPY_AVAILABLE, run_batch

from .test_backend_equivalence_fuzz import (
    _assert_observables_match,
    _event_run,
    _semantic,
)

pytestmark = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                reason="numpy not installed")


def _fault(kind, rng, n, rounds):
    """One ScenarioSpec of a montecarlo-vec fault kind."""
    if kind in ("benign", "malicious"):
        return ScenarioSpec("SenderFault", {
            "sender": rng.randint(1, n), "kind": kind,
            "from_round": rng.randint(2, rounds // 2)})
    if kind == "gilbert-elliott":
        return ScenarioSpec("GilbertElliottChannel", {
            "p_gb": rng.choice((0.02, 0.05, 0.1)), "p_bg": 0.5,
            "error_good": 0.0, "error_bad": 1.0, "rng_stream": "lh-ge"})
    if kind == "poisson":
        return ScenarioSpec("PoissonTransients", {
            "rate": rng.choice((20.0, 50.0)), "burst_length": 0.0005,
            "start": 0.0, "cause": "transient", "rng_stream": "lh-pt"})
    assert kind == "slot-burst"
    return ScenarioSpec("SlotBurst", {
        "round_index": rng.randint(2, rounds // 2),
        "slot": rng.randint(1, n),
        "n_slots": rng.choice((1, 2, 2 * n))})


#: (id, nodes, replicates, rounds, fault kinds, (penalty, reward),
#: reintegration).
CASES = [
    ("ge-n8-r12", 8, 12, 200, ("gilbert-elliott",), (3, 50), False),
    ("poisson-n16-r5", 16, 5, 150, ("poisson",), (1, 5), False),
    ("benign-n8-r5", 8, 5, 120, ("benign",), (10, 50), False),
    ("malicious-ge-n16-r2", 16, 2, 200, ("malicious", "gilbert-elliott"),
     (40, 100), False),
    ("burst-poisson-n8-r2", 8, 2, 100, ("slot-burst", "poisson"), (1, 5),
     False),
    ("malicious-n8-r12", 8, 12, 100, ("malicious",), (1, 5), False),
    ("ge-n16-r12-reint", 16, 12, 150, ("gilbert-elliott",), (1, 5), True),
    ("benign-poisson-n8-r5-reint", 8, 5, 200, ("benign", "poisson"),
     (3, 50), True),
]

#: The batch whose metering crosses the flush bound several times.
FLUSHING_CASE = "ge-n16-r12-reint"


def _case_spec(case_id, n, rounds, kinds, thresholds, reintegration):
    rng = random.Random(f"long-horizon:{case_id}")
    penalty, reward = thresholds
    protocol = ProtocolSpec(
        n_nodes=n, penalty_threshold=penalty, reward_threshold=reward,
        criticalities=(1,) * n,
        isolation_mode="observe" if reintegration else "ignore",
        reintegration_reward_threshold=3 if reintegration else None)
    return RunSpec(
        protocol=protocol,
        cluster=ClusterSpec(seed=rng.randint(1, 10_000)),
        scenarios=tuple(_fault(kind, rng, n, rounds) for kind in kinds),
        n_rounds=rounds,
    )


def _event_replicate(spec, reintegration):
    if not reintegration:
        return _event_run(spec)
    registry = MetricsRegistry()
    dc = build(spec, metrics=registry)
    attach_reintegration_everywhere(dc)
    dc.run_rounds(spec.n_rounds)
    return dc, registry.snapshot()


@pytest.mark.parametrize(
    "case_id,n,reps,rounds,kinds,thresholds,reintegration", CASES,
    ids=[case[0] for case in CASES])
def test_replicates_match_per_seed_event_runs(
        monkeypatch, case_id, n, reps, rounds, kinds, thresholds,
        reintegration):
    from repro.vec import kernel

    flushes = []
    flush = kernel._Kernel._flush

    def counting_flush(self):
        flushes.append(1)
        flush(self)

    monkeypatch.setattr(kernel._Kernel, "_flush", counting_flush)
    spec = _case_spec(case_id, n, rounds, kinds, thresholds, reintegration)
    batch = run_batch(spec, replicates=reps, reintegration=reintegration)
    first_isolations = set()
    for i, seed in enumerate(batch.seeds):
        spec_r = replace(spec, cluster=replace(spec.cluster, seed=seed))
        dc, snap = _event_replicate(spec_r, reintegration)
        view = batch.view(i)
        _assert_observables_match(dc, view, n)
        assert _semantic(snap) == _semantic(view.metrics_snapshot()), seed
        records = view.isolation_records()
        first_isolations.add(records[0]["round_index"] if records else None)
    if case_id == FLUSHING_CASE:
        # Several bounded flushes plus the final one, and replicates
        # that isolate at different rounds.
        assert len(flushes) > 2
        assert len(first_isolations) > 1
