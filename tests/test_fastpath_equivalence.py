"""Fast-path vs slow-path bit-exactness.

The batched slot delivery fast path (``Bus.transmit_quiescent`` gated
by ``InjectionLayer.is_quiescent``) is an optimisation, not a semantic
variant: for every seed and every scenario mix the cluster must produce
byte-identical traces and identical health vectors whether the fast
path is enabled or forced off.  These tests pin that contract on
fault-free runs and on runs with deterministic and stochastic
injections (the stochastic ones also exercise the "same RNG draws"
requirement — a single skipped or extra draw would desynchronise every
subsequent verdict).
"""

import json

import pytest

from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster
from repro.faults.processes import (
    IntermittentSender,
    PoissonTransients,
    RandomSlotNoise,
)
from repro.faults.scenarios import SenderFault, SlotBurst

FAULT_ROUND = 5
ROUNDS = 20


def _no_scenarios(dc):
    return ()


def _slot_burst(dc):
    return (SlotBurst(dc.cluster.timebase, FAULT_ROUND, 2, 1),)


def _long_burst(dc):
    return (SlotBurst(dc.cluster.timebase, FAULT_ROUND, 1,
                      2 * dc.config.n_nodes),)


def _sender_fault(dc):
    return (SenderFault(1, kind="benign",
                        rounds=[FAULT_ROUND, FAULT_ROUND + 2]),)


def _stochastic_mix(dc):
    streams = dc.cluster.streams
    return (
        PoissonTransients(rate=200.0, burst_length=0.5e-3,
                          rng=streams.stream("transients")),
        IntermittentSender(2, mean_reappearance_rounds=4,
                           rng=streams.stream("intermittent")),
        RandomSlotNoise(0.05, rng=streams.stream("noise")),
    )


SCENARIO_BUILDERS = [
    _no_scenarios,
    _slot_burst,
    _long_burst,
    _sender_fault,
    _stochastic_mix,
]


def run_cluster(n_nodes, fast_path, builder, seed=0, trace_level=2):
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    dc = DiagnosedCluster(config, seed=seed, trace_level=trace_level,
                          fast_path=fast_path)
    for scenario in builder(dc):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(ROUNDS)
    return dc


@pytest.mark.parametrize("n_nodes", [4, 8])
@pytest.mark.parametrize("builder", SCENARIO_BUILDERS,
                         ids=lambda b: b.__name__.lstrip("_"))
class TestFastSlowEquivalence:
    def test_traces_byte_identical(self, n_nodes, builder):
        fast = run_cluster(n_nodes, True, builder)
        slow = run_cluster(n_nodes, False, builder)
        fast_dicts = fast.trace.to_dicts()
        slow_dicts = slow.trace.to_dicts()
        assert fast_dicts == slow_dicts
        assert (json.dumps(fast_dicts, sort_keys=True) ==
                json.dumps(slow_dicts, sort_keys=True))

    def test_health_vectors_identical(self, n_nodes, builder):
        fast = run_cluster(n_nodes, True, builder)
        slow = run_cluster(n_nodes, False, builder)
        for node in range(1, n_nodes + 1):
            assert fast.health_vectors(node) == slow.health_vectors(node)
        assert (fast.consistent_health_history() ==
                slow.consistent_health_history())


@pytest.mark.parametrize("n_nodes", [4, 8])
def test_traceless_runs_match_rounds_and_counters(n_nodes):
    """At trace_level=0 the paths still agree on all protocol state."""
    fast = run_cluster(n_nodes, True, _stochastic_mix, trace_level=0)
    slow = run_cluster(n_nodes, False, _stochastic_mix, trace_level=0)
    assert fast.cluster.rounds_completed == slow.cluster.rounds_completed
    for node in range(1, n_nodes + 1):
        assert (str(fast.service(node).pr.snapshot()) ==
                str(slow.service(node).pr.snapshot()))
        assert fast.service(node).active == slow.service(node).active


def test_fast_path_skips_injection_machinery():
    """Sanity: quiescent slots never reach ``InjectionLayer.apply``."""
    calls = {True: 0, False: 0}

    def counting(dc, key):
        layer = dc.cluster.bus.injection
        original = layer.apply

        def apply(ctx):
            calls[key] += 1
            return original(ctx)

        layer.apply = apply

    config = uniform_config(4, penalty_threshold=3, reward_threshold=50)
    for fast_path in (True, False):
        dc = DiagnosedCluster(config, seed=0, fast_path=fast_path)
        counting(dc, fast_path)
        dc.run_rounds(ROUNDS)
    assert calls[True] == 0
    assert calls[False] > 0


# ---------------------------------------------------------------------------
# Differential fuzz: random scenario mixes, fast vs slow, serial vs pool
# ---------------------------------------------------------------------------
#
# Each case seed deterministically derives a cluster size, a mix of
# 1-3 fault scenarios (deterministic and stochastic) and their
# parameters.  For every case the fast and slow paths must produce
# byte-identical traces and — because metering is purely observational
# — identical metrics snapshots, except for the two counters that
# *describe the execution strategy itself* (``bus.slots_fast_path`` /
# ``bus.slots_slow_path``), which are expected to differ and are
# excluded from the comparison.  A subset of cases is additionally run
# through a process pool to pin serial == four workers.

import random as _random
from concurrent.futures import ProcessPoolExecutor

from repro.core.service import LowLatencyCluster, MembershipCluster
from repro.faults.scenarios import crash
from repro.obs import MetricsRegistry

FUZZ_CASES = 50
FUZZ_NODES = (4, 8, 16)
FUZZ_ROUNDS = 10
#: Counters describing *how* the run executed rather than *what* the
#: protocol did; legitimately different between fast and slow runs.
EXECUTION_COUNTERS = frozenset(
    {"bus.slots_fast_path", "bus.slots_slow_path"})
#: Superset also covering the bitset-analysis strategy counters, which
#: legitimately differ between ``bitset=True`` and ``bitset=False``.
STRATEGY_COUNTERS = EXECUTION_COUNTERS | frozenset(
    {"vote.cache_hit", "vote.cache_miss", "vote.popcount_votes",
     "syndrome.intern_evictions"})


def _fuzz_scenarios(dc, case_seed):
    """Deterministic random scenario mix for one fuzz case."""
    rng = _random.Random(case_seed)
    n = dc.config.n_nodes
    tb = dc.cluster.timebase
    streams = dc.cluster.streams
    scenarios = []
    for i in range(rng.randint(1, 3)):
        kind = rng.choice(("slot-burst", "long-burst", "sender", "crash",
                           "poisson", "intermittent", "noise"))
        if kind == "slot-burst":
            scenarios.append(SlotBurst(tb, rng.randint(2, 6),
                                       rng.randint(1, n), rng.randint(1, n)))
        elif kind == "long-burst":
            scenarios.append(SlotBurst(tb, rng.randint(2, 5), 1,
                                       rng.randint(n, 2 * n)))
        elif kind == "sender":
            first = rng.randint(2, 6)
            scenarios.append(SenderFault(
                rng.randint(1, n), kind="benign",
                rounds=[first, first + rng.randint(1, 3)]))
        elif kind == "crash":
            scenarios.append(crash(rng.randint(1, n),
                                   from_round=rng.randint(3, 7)))
        elif kind == "poisson":
            scenarios.append(PoissonTransients(
                rate=rng.choice((50.0, 200.0)), burst_length=0.5e-3,
                rng=streams.stream(f"fuzz-poisson-{i}")))
        elif kind == "intermittent":
            scenarios.append(IntermittentSender(
                rng.randint(1, n),
                mean_reappearance_rounds=rng.randint(2, 6),
                rng=streams.stream(f"fuzz-intermittent-{i}")))
        else:
            scenarios.append(RandomSlotNoise(
                rng.choice((0.02, 0.08)),
                rng=streams.stream(f"fuzz-noise-{i}")))
    return scenarios


def _run_fuzz_case(case_seed, fast_path):
    n_nodes = FUZZ_NODES[case_seed % len(FUZZ_NODES)]
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    registry = MetricsRegistry()
    dc = DiagnosedCluster(config, seed=case_seed, trace_level=2,
                          fast_path=fast_path, metrics=registry)
    for scenario in _fuzz_scenarios(dc, case_seed):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(FUZZ_ROUNDS)
    return (json.dumps(dc.trace.to_dicts(), sort_keys=True),
            registry.snapshot())


def _semantic(snapshot):
    """A snapshot with all strategy counters dropped."""
    return {**snapshot,
            "counters": {name: value
                         for name, value in snapshot["counters"].items()
                         if name not in STRATEGY_COUNTERS}}


def _fuzz_worker(case_seed):
    """Picklable pool worker: one fast-path metered fuzz case."""
    return _run_fuzz_case(case_seed, True)


VARIANT_KINDS = ("base", "membership", "lowlatency")


def _run_variant_case(case_seed, kind, bitset, fast_path=True):
    """One metered fuzz case on a chosen cluster kind and data plane."""
    n_nodes = FUZZ_NODES[case_seed % len(FUZZ_NODES)]
    config = uniform_config(n_nodes, penalty_threshold=3,
                            reward_threshold=50)
    registry = MetricsRegistry()
    if kind == "base":
        dc = DiagnosedCluster(config, seed=case_seed, trace_level=2,
                              fast_path=fast_path, metrics=registry,
                              bitset=bitset)
    elif kind == "membership":
        dc = MembershipCluster(config, seed=case_seed, trace_level=2,
                               fast_path=fast_path, metrics=registry,
                               bitset=bitset)
    else:
        dc = LowLatencyCluster(config, seed=case_seed, trace_level=2,
                               fast_path=fast_path, metrics=registry,
                               membership=True, bitset=bitset)
    for scenario in _fuzz_scenarios(dc, case_seed):
        dc.cluster.add_scenario(scenario)
    dc.run_rounds(FUZZ_ROUNDS)
    return (json.dumps(dc.trace.to_dicts(), sort_keys=True),
            registry.snapshot())


def _variant_worker(case_seed, kind):
    """Picklable pool worker: one bitset variant fuzz case."""
    return _run_variant_case(case_seed, kind, True)


@pytest.mark.parametrize("case_seed", range(FUZZ_CASES))
def test_fuzz_fast_slow_differential(case_seed):
    fast_trace, fast_snap = _run_fuzz_case(case_seed, True)
    slow_trace, slow_snap = _run_fuzz_case(case_seed, False)
    assert fast_trace == slow_trace
    assert _semantic(fast_snap) == _semantic(slow_snap)
    # The strategy counters must still partition the same slot total.
    fast_c, slow_c = fast_snap["counters"], slow_snap["counters"]
    assert fast_c["bus.slots_total"] == slow_c["bus.slots_total"]
    assert (fast_c.get("bus.slots_fast_path", 0)
            + fast_c.get("bus.slots_slow_path", 0)
            == slow_c.get("bus.slots_fast_path", 0)
            + slow_c.get("bus.slots_slow_path", 0))
    assert slow_c.get("bus.slots_fast_path", 0) == 0


def test_fuzz_jobs_invariant():
    """The first ten fuzz cases through a process pool: serial == 4 workers."""
    seeds = list(range(10))
    serial = [_fuzz_worker(s) for s in seeds]
    with ProcessPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(_fuzz_worker, seeds))
    assert serial == parallel


# ---------------------------------------------------------------------------
# Differential fuzz: bitset vs tuple data plane, per cluster kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", VARIANT_KINDS)
@pytest.mark.parametrize("case_seed", range(0, FUZZ_CASES, 2))
def test_fuzz_bitset_tuple_differential(case_seed, kind):
    """bitset=True and bitset=False agree byte-for-byte on every kind."""
    bit_trace, bit_snap = _run_variant_case(case_seed, kind, True)
    tup_trace, tup_snap = _run_variant_case(case_seed, kind, False)
    assert bit_trace == tup_trace
    assert _semantic(bit_snap) == _semantic(tup_snap)
    # The tuple plane must not touch the bitset strategy counters.
    tup_c = tup_snap["counters"]
    assert tup_c.get("vote.cache_hit", 0) == 0
    assert tup_c.get("vote.popcount_votes", 0) == 0


@pytest.mark.parametrize("case_seed", (1, 6, 11))
def test_fuzz_bitset_fastpath_matrix(case_seed):
    """All four bitset × fast-path combinations agree semantically."""
    results = {
        (bitset, fast_path): _run_variant_case(case_seed, "base", bitset,
                                               fast_path=fast_path)
        for bitset in (True, False) for fast_path in (True, False)}
    reference_trace, reference_snap = results[(True, True)]
    for combo, (trace, snap) in results.items():
        assert trace == reference_trace, combo
        assert _semantic(snap) == _semantic(reference_snap), combo


def test_fuzz_variants_jobs_invariant():
    """Variant fuzz cases through a process pool: serial == 4 workers."""
    cases = [(s, kind) for s in (0, 1, 2) for kind in VARIANT_KINDS]
    serial = [_variant_worker(s, kind) for s, kind in cases]
    with ProcessPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(_variant_worker, *zip(*cases)))
    assert serial == parallel
