"""Differential fuzz: event engine vs vectorized round kernel.

The vectorized backend (:mod:`repro.vec`) is an optimisation, not a
semantic variant: for every supported spec the numpy round kernel must
produce **bit-identical observables** to the discrete-event engine —
health vectors, penalty/reward counters, activity matrices, isolation
times and metrics snapshots.  These tests pin that contract with a
three-way comparison per randomized case:

* event engine, bus fast path wherever a slot is quiescent (the default),
* event engine, every slot forced down the bus's slow path
  (:func:`~tests.test_event_engine_golden.force_slow_path`),
* vectorized kernel (one-replicate batch).

Cases randomize cluster size, protocol knobs (thresholds,
criticalities, isolation mode, startup, halt-on-self-isolation),
schedules (default, uniform and per-node ``exec_after`` mixes including
the footnote-1 shift and the all-send-curr-round pipeline) and 1-3
fault scenarios covering benign, asymmetric and malicious sender
faults, slot bursts and all three stochastic processes.

The event engine's *strategy* counters (fast-path/cache/popcount/event
tallies) describe how it executes rather than what the protocol did;
they are the one deliberate difference and are stripped before
snapshot comparison — exactly like the fast/slow fuzz in
``test_fastpath_equivalence.py``.
"""

import random
from dataclasses import replace

import pytest

from repro.obs import MetricsRegistry
from repro.spec import (
    ClusterSpec,
    ProtocolSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
)
from repro.spec.build import build
from repro.vec import NUMPY_AVAILABLE, UnsupportedSpecError, run_batch

from .test_event_engine_golden import force_slow_path

pytestmark = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                reason="numpy not installed")

FUZZ_CASES = 60
FUZZ_NODES = (4, 8, 16)
FUZZ_ROUNDS = 14

#: Counters describing the event engine's execution strategy; the
#: vectorized kernel has no equivalent machinery and never emits them.
STRATEGY_COUNTERS = frozenset({
    "bus.slots_fast_path", "bus.slots_slow_path",
    "vote.cache_hit", "vote.cache_miss", "vote.popcount_votes",
    "syndrome.intern_evictions", "engine.events_executed",
})


def _semantic(snapshot):
    """A snapshot reduced to protocol-semantic instruments only."""
    return {**snapshot,
            "counters": {name: value
                         for name, value in snapshot["counters"].items()
                         if name not in STRATEGY_COUNTERS
                         and not name.startswith("spec.run.")}}


def _channel_scenario(kind, i, n, rng):
    """One randomized channel-model ScenarioSpec (PR 7 fault library)."""
    if kind == "gilbert":
        return ScenarioSpec("GilbertElliottChannel", {
            "p_gb": rng.choice((0.05, 0.15)),
            "p_bg": rng.choice((0.3, 0.6)),
            "error_good": rng.choice((0.0, 0.02)),
            "error_bad": rng.choice((1.0, 0.8)),
            "start_bad": rng.random() < 0.2,
            "rng_stream": f"fz-ge-{i}"})
    if kind == "emi":
        return ScenarioSpec("CorrelatedEMI", {
            "event_rate": rng.choice((0.1, 0.25)),
            "width": rng.randint(1, max(2, n // 2)),
            "rng_stream": f"fz-emi-{i}"})
    if kind == "duty":
        period = rng.randint(3, 6)
        return ScenarioSpec("DutyCycleIntermittent", {
            "sender": rng.randint(1, n),
            "period_rounds": period,
            "on_rounds": rng.randint(1, period),
            "first_round": rng.choice((0, 2)),
            "rng_stream": f"fz-duty-{i}"})
    assert kind == "storm"
    senders = (None if rng.random() < 0.5 else
               sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    return ScenarioSpec("FaultStorm", {
        "gust_rate": rng.choice((0.2, 0.4)),
        "intensity": rng.choice((0.3, 0.7)),
        "senders": senders,
        "start_round": rng.choice((0, 3)),
        "duration_rounds": rng.choice((None, 6)),
        "rng_stream": f"fz-storm-{i}"})


def _fuzz_scenarios(rng, n):
    """1-3 randomized ScenarioSpecs for an n-node cluster."""
    scenarios = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice((
            "slot-burst", "long-burst", "benign", "asymmetric",
            "malicious", "crash", "poisson", "intermittent", "noise",
            "gilbert", "emi", "duty", "storm"))
        if kind in ("gilbert", "emi", "duty", "storm"):
            scenarios.append(_channel_scenario(kind, i, n, rng))
            continue
        if kind == "slot-burst":
            scenarios.append(ScenarioSpec("SlotBurst", {
                "round_index": rng.randint(2, 7),
                "slot": rng.randint(1, n),
                "n_slots": rng.randint(1, n)}))
        elif kind == "long-burst":
            scenarios.append(ScenarioSpec("SlotBurst", {
                "round_index": rng.randint(2, 6), "slot": 1,
                "n_slots": rng.randint(n, 2 * n)}))
        elif kind == "benign":
            first = rng.randint(2, 6)
            scenarios.append(ScenarioSpec("SenderFault", {
                "sender": rng.randint(1, n), "kind": "benign",
                "rounds": [first, first + rng.randint(1, 3)]}))
        elif kind == "asymmetric":
            receivers = rng.sample(range(1, n + 1),
                                   rng.randint(1, max(1, n // 2)))
            first = rng.randint(2, 6)
            scenarios.append(ScenarioSpec("SenderFault", {
                "sender": rng.randint(1, n), "kind": "asymmetric",
                "detectable_by": sorted(receivers),
                "rounds": list(range(first, first + rng.randint(1, 4)))}))
        elif kind == "malicious":
            payload = rng.choice((
                [rng.randint(0, 1) for _ in range(n)],   # forged syndrome
                [2] * n,                                 # malformed bits
                "garbage",                               # not a syndrome
            ))
            scenarios.append(ScenarioSpec("SenderFault", {
                "sender": rng.randint(1, n), "kind": "malicious",
                "payload": payload,
                "from_round": rng.randint(2, 6)}))
        elif kind == "crash":
            scenarios.append(ScenarioSpec("SenderFault", {
                "sender": rng.randint(1, n), "kind": "benign",
                "from_round": rng.randint(3, 7)}))
        elif kind == "poisson":
            scenarios.append(ScenarioSpec("PoissonTransients", {
                "rate": rng.choice((50.0, 200.0)),
                "burst_length": 0.5e-3,
                "rng_stream": f"fz-poisson-{i}"}))
        elif kind == "intermittent":
            scenarios.append(ScenarioSpec("IntermittentSender", {
                "sender": rng.randint(1, n),
                "mean_reappearance_rounds": rng.randint(2, 6),
                "rng_stream": f"fz-intermittent-{i}"}))
        else:
            scenarios.append(ScenarioSpec("RandomSlotNoise", {
                "probability": rng.choice((0.02, 0.08)),
                "rng_stream": f"fz-noise-{i}"}))
    return tuple(scenarios)


def _fuzz_spec(case_seed):
    """One deterministic randomized RunSpec per case seed."""
    rng = random.Random(7000 + case_seed)
    n = FUZZ_NODES[case_seed % len(FUZZ_NODES)]

    all_send_curr = rng.random() < 0.2
    if all_send_curr:
        schedule = ScheduleSpec(kind="static", exec_after=n)
    else:
        roll = rng.random()
        if roll < 0.35:
            schedule = ScheduleSpec()          # default: exec_after=0
        elif roll < 0.65:
            schedule = ScheduleSpec(kind="static",
                                    exec_after=rng.choice((0, n // 2, n)))
        else:
            schedule = ScheduleSpec(
                kind="static",
                exec_after=tuple(rng.choice((0, 1, n // 2, n - 1, n))
                                 for _ in range(n)))

    protocol = ProtocolSpec(
        n_nodes=n,
        penalty_threshold=rng.choice((1, 2, 3)),
        reward_threshold=rng.choice((3, 50)),
        criticalities=tuple(rng.choice((1, 1, 2, 3)) for _ in range(n)),
        all_send_curr_round=all_send_curr,
        startup_rounds=rng.choice((1, 2)),
        isolation_mode=rng.choice(("ignore", "observe")),
        halt_on_self_isolation=rng.choice((None, True, False)),
    )
    return RunSpec(
        protocol=protocol,
        cluster=ClusterSpec(seed=case_seed,
                            trace_level=rng.choice((2, 2, 2, 1, 0))),
        schedule=schedule,
        scenarios=_fuzz_scenarios(rng, n),
        n_rounds=FUZZ_ROUNDS,
    )


def _event_run(spec, fast_path=True):
    """Drive a spec on the event engine; return (cluster, snapshot).

    ``fast_path=False`` sends every slot down the bus's slow path.
    """
    registry = MetricsRegistry()
    dc = build(spec, metrics=registry)
    if not fast_path:
        force_slow_path(dc.cluster)
    dc.run_rounds(spec.n_rounds)
    return dc, registry.snapshot()


def _assert_observables_match(dc, view, n):
    """Every facade observable agrees between event and vectorized."""
    for node in range(1, n + 1):
        assert dc.health_vectors(node) == view.health_vectors(node), node
        assert (dc.service(node).pr.snapshot()
                == view.pr_snapshot(node)), node
    assert dc.active_matrix() == view.active_matrix()
    assert (dc.consistent_health_history()
            == view.consistent_health_history())
    for j in range(1, n + 1):
        assert dc.first_isolation_time(j) == view.first_isolation_time(j), j


@pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
def test_fuzz_three_way_backend_differential(case_seed):
    """event/fast == event/slow == vectorized, per randomized case."""
    spec = _fuzz_spec(case_seed)
    n = spec.protocol.n_nodes

    dc_fast, snap_fast = _event_run(spec)
    dc_slow, snap_slow = _event_run(spec, fast_path=False)
    view = run_batch(spec).view(0)
    snap_vec = view.metrics_snapshot()

    _assert_observables_match(dc_fast, view, n)
    _assert_observables_match(dc_slow, view, n)
    assert _semantic(snap_fast) == _semantic(snap_vec)
    assert _semantic(snap_slow) == _semantic(snap_vec)


def test_batch_replicates_match_per_seed_event_runs():
    """A replicate batch equals one event run per shifted seed."""
    spec = _fuzz_spec(3)
    n = spec.protocol.n_nodes
    batch = run_batch(spec, replicates=4)
    for i, seed in enumerate(batch.seeds):
        spec_r = replace(spec, cluster=replace(spec.cluster, seed=seed))
        dc, snap = _event_run(spec_r)
        view = batch.view(i)
        _assert_observables_match(dc, view, n)
        assert _semantic(snap) == _semantic(view.metrics_snapshot())


def test_reintegration_differential():
    """Reintegrating clusters agree between the backends."""
    from repro.core.service import attach_reintegration_everywhere

    for case_seed in (0, 1, 2, 5, 8):
        rng = random.Random(9000 + case_seed)
        n = FUZZ_NODES[case_seed % len(FUZZ_NODES)]
        protocol = ProtocolSpec(
            n_nodes=n, penalty_threshold=rng.choice((1, 2)),
            reward_threshold=50,
            criticalities=(1,) * n,
            isolation_mode="observe",
            halt_on_self_isolation=rng.choice((None, True)),
            reintegration_reward_threshold=rng.choice((2, 3)))
        spec = RunSpec(
            protocol=protocol,
            cluster=ClusterSpec(seed=case_seed),
            scenarios=_fuzz_scenarios(rng, n),
            n_rounds=18,
        )
        registry = MetricsRegistry()
        dc = build(spec, metrics=registry)
        attach_reintegration_everywhere(dc)
        dc.run_rounds(spec.n_rounds)
        view = run_batch(spec, reintegration=True).view(0)
        _assert_observables_match(dc, view, n)
        assert (_semantic(registry.snapshot())
                == _semantic(view.metrics_snapshot()))


def test_unsupported_specs_fail_fast():
    """Out-of-scope specs raise UnsupportedSpecError, a ValueError."""
    base = _fuzz_spec(0)
    bad = [
        replace(base, schedule=ScheduleSpec(kind="dynamic")),
        replace(base, variant=replace(base.variant, service="membership")),
        replace(base, variant=replace(base.variant, byzantine_nodes=(1,))),
        replace(base, cluster=replace(base.cluster, n_channels=2)),
    ]
    for spec in bad:
        with pytest.raises(UnsupportedSpecError):
            run_batch(spec)
        assert issubclass(UnsupportedSpecError, ValueError)


# ----------------------------------------------------------------------
# Channel-model library (PR 7): dedicated three-way differential matrix
# over every lowerable model × seeds × fast-path, plus the jobs axis
# and the event-only adaptive model.
# ----------------------------------------------------------------------

CHANNEL_MODELS = ("gilbert", "emi", "duty", "storm")


def _channel_spec(model, seed, n=None, rounds=FUZZ_ROUNDS):
    """A deterministic single-channel-model RunSpec for one seed."""
    rng = random.Random(31000 + 97 * seed + CHANNEL_MODELS.index(model))
    if n is None:
        n = FUZZ_NODES[seed % len(FUZZ_NODES)]
    protocol = ProtocolSpec(
        n_nodes=n,
        penalty_threshold=rng.choice((1, 2, 3)),
        reward_threshold=rng.choice((3, 50)),
        criticalities=tuple(rng.choice((1, 1, 2)) for _ in range(n)),
        isolation_mode=rng.choice(("ignore", "observe")),
    )
    return RunSpec(
        protocol=protocol,
        cluster=ClusterSpec(seed=seed),
        scenarios=(_channel_scenario(model, 0, n, rng),),
        n_rounds=rounds,
    )


@pytest.mark.parametrize("model", CHANNEL_MODELS)
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("fast_path", (True, False))
def test_channel_model_three_way_differential(model, seed, fast_path):
    """event/fast == event/slow == vectorized per channel model.

    Health vectors, p/r counters, activity matrices, isolation times
    and semantic metrics must be bit-identical between the event
    engine, on either bus path, and the vectorized kernel for every
    channel model.
    """
    spec = _channel_spec(model, seed)
    n = spec.protocol.n_nodes

    dc, snap = _event_run(spec, fast_path=fast_path)
    view = run_batch(spec).view(0)

    _assert_observables_match(dc, view, n)
    assert _semantic(snap) == _semantic(view.metrics_snapshot())


@pytest.mark.parametrize("model", CHANNEL_MODELS)
def test_channel_model_replicate_batch(model):
    """A replicate batch equals per-seed event runs for each model."""
    spec = _channel_spec(model, 1)
    n = spec.protocol.n_nodes
    batch = run_batch(spec, replicates=3)
    for i, seed in enumerate(batch.seeds):
        spec_r = replace(spec, cluster=replace(spec.cluster, seed=seed))
        dc, snap = _event_run(spec_r)
        view = batch.view(i)
        _assert_observables_match(dc, view, n)
        assert _semantic(snap) == _semantic(view.metrics_snapshot())


@pytest.mark.slow
def test_channel_models_across_jobs():
    """jobs=2 pool dispatch reproduces jobs=1 for every channel model."""
    from repro.campaign import monte_carlo_specs, run_campaign

    for model in CHANNEL_MODELS:
        labeled = [(f"replicate-{i}", s) for i, s in enumerate(
            monte_carlo_specs(_channel_spec(model, 0, n=4, rounds=10), 4))]
        serial = run_campaign(labeled, jobs=1)
        fanned = run_campaign(labeled, jobs=2)
        assert serial.ok and fanned.ok, model
        assert serial.results == fanned.results, model


def test_adaptive_saboteur_event_paths_agree():
    """The adaptive model is deterministic across event-engine variants.

    Its decisions read live protocol state, so the fast and slow bus
    paths must see the identical memoised choice sequence — pinned
    here by comparing every observable.
    """
    for n, seed in ((4, 0), (8, 1)):
        protocol = ProtocolSpec(
            n_nodes=n, penalty_threshold=3, reward_threshold=4,
            criticalities=(1,) * n)
        base = RunSpec(
            protocol=protocol,
            cluster=ClusterSpec(seed=seed),
            scenarios=(ScenarioSpec("AdaptiveSaboteur",
                                    {"sender": 2, "margin": 1}),),
            n_rounds=16,
        )
        reference = None
        for fast_path in (True, False):
            dc, _snap = _event_run(base, fast_path=fast_path)
            observed = (
                {j: dc.health_vectors(j) for j in range(1, n + 1)},
                {j: dc.service(j).pr.snapshot() for j in range(1, n + 1)},
                dc.active_matrix(),
                {j: dc.first_isolation_time(j) for j in range(1, n + 1)},
            )
            if reference is None:
                reference = observed
            else:
                assert observed == reference, (n, seed, fast_path)


def test_adaptive_saboteur_is_event_only_on_vectorized():
    """The adaptive model cannot lower; the kernel must reject it."""
    protocol = ProtocolSpec(n_nodes=4, penalty_threshold=2,
                            reward_threshold=5, criticalities=(1,) * 4)
    spec = RunSpec(
        protocol=protocol, cluster=ClusterSpec(seed=0),
        scenarios=(ScenarioSpec("AdaptiveSaboteur", {"sender": 3}),),
        n_rounds=10)
    with pytest.raises(UnsupportedSpecError, match="event-only"):
        run_batch(spec)
