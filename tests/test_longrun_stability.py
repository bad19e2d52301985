"""Long-horizon stability tests.

The slow-marked runs exercise the stack for thousands of rounds with
mixed stochastic fault processes and assert global invariants: bounded
memory in the protocol buffers, oracle-clean diagnosis wherever the
theorem conditions hold, and consistent p/r counter evolution across
all obedient nodes.  The memory gate checks that memory does not grow
with the number of runs a process executes.
"""

import gc
import tracemalloc

import pytest

from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster, LowLatencyCluster
from repro.experiments.oracle import check_against_oracle
from repro.faults.processes import IntermittentSender, PoissonTransients
from repro.spec import RunSpec
from repro.spec.build import execute


def mixed_cluster(seed=0, n_rounds=4000):
    # R = 400 rounds (1 s) correlates the intermittent's reappearances
    # (mean 40 rounds; a >400-round gap is a 1-in-e^10 event) while the
    # per-node external transient inter-arrival (~1600 rounds at 1/s on
    # the bus) almost always resets — the Fig. 3 design point, scaled.
    config = uniform_config(4, penalty_threshold=20, reward_threshold=400)
    dc = DiagnosedCluster(config, seed=seed, trace_level=1)
    streams = dc.cluster.streams
    dc.cluster.add_scenario(PoissonTransients(
        rate=1.0, burst_length=0.5e-3, rng=streams.stream("transients")))
    dc.cluster.add_scenario(IntermittentSender(
        3, mean_reappearance_rounds=40, rng=streams.stream("intermittent")))
    dc.run_rounds(n_rounds)
    return dc


@pytest.mark.slow
class TestLongRun:
    def test_counters_stay_consistent_for_thousands_of_rounds(self):
        dc = mixed_cluster(seed=1)
        snapshots = {i: dc.service(i).pr.snapshot() for i in (1, 2, 4)}
        assert len({str(s) for s in snapshots.values()}) == 1
        actives = {tuple(dc.service(i).active) for i in (1, 2, 4)}
        assert len(actives) == 1

    def test_unhealthy_node_eventually_isolated_healthy_not(self):
        dc = mixed_cluster(seed=2)
        active = dc.service(1).active
        assert active[2] == 0, "the intermittent node must be isolated"
        assert active[0] == 1 and active[1] == 1 and active[3] == 1

    def test_protocol_buffers_bounded(self):
        dc = mixed_cluster(seed=3, n_rounds=2000)
        for i in range(1, 5):
            service = dc.service(i)
            assert len(service._own_ls_by_round) <= 8
            controller = dc.cluster.node(i).controller
            for history in controller._history.values():
                assert len(history) <= 4
            # Own-slot collision results: the receive history's depth.
            assert len(controller._collision) <= 4
        # A dynamic schedule keeps the current and the previous draw.
        config = uniform_config(4, penalty_threshold=20,
                                reward_threshold=400)
        dynamic = DiagnosedCluster(config, seed=3, trace_level=0,
                                   dynamic_schedules=True)
        dynamic.run_rounds(2000)
        for i in range(1, 5):
            node = dynamic.cluster.node(i)
            assert len(node.schedule._cache) <= 2
            assert len(node.controller._collision) <= 4

    def test_oracle_clean_over_long_mixed_run(self):
        config = uniform_config(4, penalty_threshold=10 ** 6,
                                reward_threshold=10 ** 6)
        dc = DiagnosedCluster(config, seed=4, trace_level=2)
        dc.cluster.add_scenario(PoissonTransients(
            rate=2.0, burst_length=0.4e-3,
            rng=dc.cluster.streams.stream("transients")))
        dc.run_rounds(1500)
        report = check_against_oracle(dc)
        assert report.ok, report.violations[:3]
        assert report.rounds_checked > 1000

    def test_lowlatency_long_run_consistency(self):
        config = uniform_config(4, penalty_threshold=50,
                                reward_threshold=200)
        llc = LowLatencyCluster(config, seed=5, trace_level=0)
        llc.cluster.add_scenario(PoissonTransients(
            rate=2.0, burst_length=0.4e-3,
            rng=llc.cluster.streams.stream("transients")))
        llc.run_rounds(2000)
        assert llc.consistent_verdicts()
        actives = {tuple(llc.service(i).active) for i in range(1, 5)}
        assert len(actives) == 1


def test_finished_runs_retain_no_memory():
    """Memory gate: ten runs retain less than 1.5x what one run does.

    With the cyclic collector disabled, only reference counting frees a
    finished run, so a run left as a reference cycle is retained for
    good: each one here holds ~0.3 MB, and 10 runs retain ~10x what one
    does.  What remains after a freed run is a bounded residue that
    tracemalloc still counts: CPython's tuple free lists keep up to
    2,000 freed tuples per size (~1.3 kB per run of this spec).
    """
    spec = RunSpec.from_dict({
        "protocol": {"n_nodes": 6, "penalty_threshold": 3,
                     "reward_threshold": 10, "criticalities": [1] * 6},
        "cluster": {"seed": 5},
        "scenarios": [{"type": "SenderFault", "params": {
            "sender": 2, "kind": "benign", "rounds": [4, 6, 8]}}],
        "n_rounds": 30})
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        execute(spec)
        after_one, _peak = tracemalloc.get_traced_memory()
        for _ in range(9):
            execute(spec)
        after_ten, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert after_ten < 1.5 * after_one, (after_one, after_ten)
