"""Online metrics vs trace ground truth, plus end-to-end determinism.

The observability layer is only trustworthy if the counters it
accumulates *online* agree with what the (independently recorded)
trace says happened.  These tests run metered clusters and check the
exact arithmetic relationships between the two, then pin the
determinism contract: same seed means byte-identical reports, across
repeat runs, across ``jobs`` values and across snapshot merge orders.
"""

import json

from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster, LowLatencyCluster
from repro.faults.scenarios import SlotBurst
from repro.obs import (
    MetricsRegistry,
    merge_snapshots,
    render_json,
    run_report,
)
from repro.campaign import run_campaign, table2_campaign, validation_campaign
from repro.spec import execute

N_NODES = 4
ROUNDS = 20
FAULT_ROUND = 5


def run_with_metrics(defn, jobs):
    """A campaign through the engine: (aggregate, merged snapshot)."""
    result = run_campaign(defn.labeled_specs, name=defn.name, jobs=jobs)
    result.raise_first_error()
    return defn.aggregate(result.results), result.merged_snapshot()


def run_unmetered(defn):
    """The in-process reference: every spec executed in task order."""
    return defn.aggregate([execute(s) for _label, s in defn.labeled_specs])


def run_metered(n_nodes=N_NODES, seed=0, trace_level=2, burst_slots=1,
                penalty_threshold=10 ** 6, timing=False, rounds=ROUNDS):
    registry = MetricsRegistry(timing=timing)
    config = uniform_config(n_nodes, penalty_threshold=penalty_threshold,
                            reward_threshold=50)
    dc = DiagnosedCluster(config, seed=seed, trace_level=trace_level,
                          metrics=registry)
    if burst_slots:
        dc.cluster.add_scenario(SlotBurst(dc.cluster.timebase, FAULT_ROUND,
                                          1, burst_slots))
    dc.run_rounds(rounds)
    return dc, registry


# ---------------------------------------------------------------------------
# Counters vs trace-derived ground truth
# ---------------------------------------------------------------------------
class TestGroundTruth:
    def test_bus_slot_counters_match_tx_records(self):
        dc, registry = run_metered()
        counters = registry.snapshot()["counters"]
        tx = dc.trace.select(category="tx")
        assert counters["bus.slots_total"] == len(tx)
        assert counters["bus.slots_total"] == (
            counters.get("bus.slots_fast_path", 0)
            + counters.get("bus.slots_slow_path", 0))
        # Every scheduled slot of every completed round hit the bus.
        assert counters["bus.slots_total"] == N_NODES * ROUNDS

    def test_isolation_counter_matches_isolation_records(self):
        from repro.faults.scenarios import SenderFault

        # Enough consecutive faulty rounds to exceed the small budget.
        registry = MetricsRegistry()
        config = uniform_config(N_NODES, penalty_threshold=3,
                                reward_threshold=50)
        dc = DiagnosedCluster(config, seed=0, metrics=registry)
        dc.cluster.add_scenario(SenderFault(
            1, kind="benign",
            rounds=lambda k: FAULT_ROUND <= k < FAULT_ROUND + 6))
        dc.run_rounds(ROUNDS)
        counters = registry.snapshot()["counters"]
        isolations = dc.trace.select(category="isolation")
        assert counters["diag.isolations"] == len(isolations) > 0
        assert counters["pr.isolation_verdicts"] > 0

    def test_hmaj_call_arithmetic(self):
        dc, registry = run_metered()
        counters = registry.snapshot()["counters"]
        calls = counters["vote.hmaj_calls"]
        # Non-uniform analyses vote one column per node; uniform rounds
        # take the pointer-equality shortcut and never call h_maj.
        analyses = counters["diag.analysis_rounds"]
        uniform = counters["diag.uniform_shortcut_rounds"]
        assert calls == N_NODES * (analyses - uniform)
        # Every call is attributed to exactly one outcome.
        assert calls == (counters.get("vote.hmaj_majority", 0)
                         + counters.get("vote.hmaj_default_healthy", 0)
                         + counters.get("vote.hmaj_bottom", 0))
        # The burst produced at least one genuinely voted analysis.
        assert uniform < analyses
        assert counters["vote.hmaj_majority"] > 0

    def test_analysis_rounds_match_cons_hv_records(self):
        dc, registry = run_metered(trace_level=2)
        counters = registry.snapshot()["counters"]
        cons = dc.trace.select(category="cons_hv")
        assert counters["diag.analysis_rounds"] == len(cons)

    def test_epsilon_histogram_covers_every_analysis(self):
        _dc, registry = run_metered()
        snap = registry.snapshot()
        hist = snap["histograms"]["diag.matrix_epsilon_rows"]
        assert hist["count"] == snap["counters"]["diag.analysis_rounds"]
        # Fault-free rounds dominate: bucket 0 (<= 0 epsilon rows) is
        # the most populated one.
        assert hist["buckets"][0] == max(hist["buckets"])

    def test_penalty_increments_match_cons_hv_zeros(self):
        dc, registry = run_metered(trace_level=2)
        counters = registry.snapshot()["counters"]
        zeros = sum(rec.data["cons_hv"].count(0)
                    for rec in dc.trace.select(category="cons_hv"))
        assert counters["pr.penalty_increments"] == zeros > 0

    def test_hv_transitions_match_trace_transitions(self):
        dc, registry = run_metered(trace_level=2)
        counters = registry.snapshot()["counters"]
        transitions = 0
        for node in range(1, N_NODES + 1):
            vectors = [rec.data["cons_hv"] for rec in
                       dc.trace.select(category="cons_hv", node=node)]
            transitions += sum(1 for a, b in zip(vectors, vectors[1:])
                               if a != b)
        assert counters["diag.hv_transitions"] == transitions > 0

    def test_blackout_round_drives_bottom_fallback(self):
        # A burst spanning 2N slots silences two full rounds: every
        # column of the diagnostic matrix is epsilon, so each vote
        # falls back through BOTTOM (Lemma 3).
        _dc, registry = run_metered(burst_slots=2 * N_NODES)
        counters = registry.snapshot()["counters"]
        assert counters["vote.hmaj_bottom"] > 0
        hist = registry.snapshot()["histograms"]["diag.matrix_epsilon_rows"]
        # The overflow buckets saw the all-epsilon matrices.
        assert sum(hist["buckets"][1:]) > 0

    def test_fault_free_run_is_all_uniform(self):
        _dc, registry = run_metered(burst_slots=0)
        counters = registry.snapshot()["counters"]
        assert (counters["diag.uniform_shortcut_rounds"]
                == counters["diag.analysis_rounds"] > 0)
        assert counters.get("vote.hmaj_calls", 0) == 0
        assert counters["bus.slots_fast_path"] == counters["bus.slots_total"]

    def test_engine_and_cluster_counters(self):
        _dc, registry = run_metered()
        counters = registry.snapshot()["counters"]
        assert counters["cluster.rounds_driven"] == ROUNDS
        assert counters["engine.events_executed"] > 0

    def test_reintegration_counter(self):
        from repro.core.config import IsolationMode
        from repro.core.service import attach_reintegration_everywhere
        from repro.faults.scenarios import SenderFault

        registry = MetricsRegistry()
        config = uniform_config(
            N_NODES, penalty_threshold=2, reward_threshold=100,
            isolation_mode=IsolationMode.OBSERVE,
            halt_on_self_isolation=False,
            reintegration_reward_threshold=8)
        dc = DiagnosedCluster(config, seed=0, metrics=registry)
        attach_reintegration_everywhere(dc)
        dc.cluster.add_scenario(SenderFault(
            2, kind="benign",
            rounds=lambda k: FAULT_ROUND <= k < FAULT_ROUND + 4))
        dc.run_rounds(40)
        counters = registry.snapshot()["counters"]
        reintegrations = dc.trace.select(category="reintegration")
        assert (counters.get("diag.reintegrations", 0)
                == len(reintegrations) > 0)

    def test_membership_counters_match_view_records(self):
        from repro.core.service import MembershipCluster

        registry = MetricsRegistry()
        config = uniform_config(N_NODES, penalty_threshold=3,
                                reward_threshold=50)
        mc = MembershipCluster(config, seed=0, metrics=registry)
        mc.cluster.add_scenario(SlotBurst(mc.cluster.timebase, FAULT_ROUND,
                                          1, 2))
        mc.run_rounds(ROUNDS)
        counters = registry.snapshot()["counters"]
        views = mc.trace.select(category="view")
        assert counters.get("membership.view_changes", 0) == len(views) > 0

    def test_lowlatency_slot_analyses(self):
        registry = MetricsRegistry()
        config = uniform_config(N_NODES, penalty_threshold=3,
                                reward_threshold=50)
        llc = LowLatencyCluster(config, seed=0, metrics=registry)
        llc.run_rounds(10)
        counters = registry.snapshot()["counters"]
        assert counters["lowlat.slot_analyses"] > 0


# ---------------------------------------------------------------------------
# Timing side channel
# ---------------------------------------------------------------------------
class TestTimingSideChannel:
    def test_phase_timers_populated_when_enabled(self):
        _dc, registry = run_metered(timing=True)
        timings = registry.timings_snapshot()
        for phase in ("engine.run", "bus.transmit", "diag.analysis",
                      "diag.pr_update"):
            assert timings[phase]["count"] > 0, phase
            assert timings[phase]["seconds"] >= 0.0

    def test_timing_never_pollutes_snapshot(self):
        _dc, timed = run_metered(timing=True)
        _dc2, untimed = run_metered(timing=False)
        assert timed.snapshot() == untimed.snapshot()


# ---------------------------------------------------------------------------
# Determinism: runs, merge orders, worker counts
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        snaps = []
        for _ in range(2):
            _dc, registry = run_metered(seed=7)
            snaps.append(registry.snapshot())
        reports = [render_json(run_report("test", {"seed": 7}, s))
                   for s in snaps]
        assert reports[0] == reports[1]

    def test_different_seeds_still_structurally_equal(self):
        # Counter *names* are seed-independent; only values may move.
        _dc1, r1 = run_metered(seed=1)
        _dc2, r2 = run_metered(seed=2)
        assert (sorted(r1.snapshot()["counters"])
                == sorted(r2.snapshot()["counters"]))

    def test_validation_sweep_jobs_invariant(self):
        defn = validation_campaign(repetitions=1)
        serial = run_with_metrics(defn, jobs=1)
        parallel = run_with_metrics(defn, jobs=4)
        assert serial[0].results == parallel[0].results
        assert (render_json(run_report("validate", {"reps": 1}, serial[1]))
                == render_json(run_report("validate", {"reps": 1},
                                          parallel[1])))

    def test_validation_sweep_metrics_match_unmetered_verdicts(self):
        defn = validation_campaign(repetitions=1)
        summary_plain = run_unmetered(defn)
        summary_metered, merged = run_with_metrics(defn, jobs=1)
        assert summary_plain.results == summary_metered.results
        assert merged["counters"]["diag.analysis_rounds"] > 0

    def test_table2_sweep_with_metrics_matches_plain(self):
        defn = table2_campaign()
        plain = run_unmetered(defn)
        rows, merged = run_with_metrics(defn, jobs=2)
        assert rows == plain
        # Budget runs execute at trace_level=0; the metrics registry is
        # their only online observability and must still be populated.
        assert merged["counters"]["diag.analysis_rounds"] > 0
        assert merged["counters"]["pr.penalty_increments"] > 0

    def test_merged_sweep_equals_manual_merge_any_order(self):
        _summary, merged = run_with_metrics(validation_campaign(repetitions=1),
                                            jobs=1)
        # Re-merge the per-task snapshots in reverse order by rerunning
        # the tasks serially ourselves.
        snaps = run_campaign(
            validation_campaign(repetitions=1).labeled_specs).snapshots
        assert merge_snapshots(snaps) == merged
        assert merge_snapshots(reversed(snaps)) == merged


# ---------------------------------------------------------------------------
# Snapshot helpers on the cluster facades
# ---------------------------------------------------------------------------
def test_metrics_snapshot_helper_with_and_without_registry():
    from repro.obs.registry import empty_snapshot

    config = uniform_config(N_NODES, penalty_threshold=10 ** 6,
                            reward_threshold=50)
    bare = DiagnosedCluster(config, seed=0)
    assert bare.metrics_snapshot() == empty_snapshot()
    registry = MetricsRegistry()
    metered = DiagnosedCluster(config, seed=0, metrics=registry)
    metered.run_rounds(3)
    assert metered.metrics_snapshot() == registry.snapshot()
    assert metered.metrics_snapshot()["counters"]["bus.slots_total"] > 0


def test_metered_run_trace_identical_to_unmetered():
    """Metering must be purely observational: same seed, same trace."""
    dc_metered, _registry = run_metered(burst_slots=2)
    config = uniform_config(N_NODES, penalty_threshold=10 ** 6,
                            reward_threshold=50)
    bare = DiagnosedCluster(config, seed=0, trace_level=2)
    bare.cluster.add_scenario(SlotBurst(bare.cluster.timebase, FAULT_ROUND,
                                        1, 2))
    bare.run_rounds(ROUNDS)
    assert (json.dumps(bare.trace.to_dicts(), sort_keys=True)
            == json.dumps(dc_metered.trace.to_dicts(), sort_keys=True))
