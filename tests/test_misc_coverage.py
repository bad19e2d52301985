"""Coverage for callbacks, mixed driving modes and smaller behaviours."""

import pytest

from repro.core.config import uniform_config
from repro.core.service import DiagnosedCluster, MembershipCluster
from repro.faults.scenarios import SenderFault, crash


def permissive():
    return uniform_config(4, penalty_threshold=10 ** 6,
                          reward_threshold=10 ** 6)


class TestCallbacks:
    def test_on_isolation_callback_fired_per_observer(self):
        config = uniform_config(4, penalty_threshold=2, reward_threshold=10)
        calls = []
        dc = DiagnosedCluster(config, seed=0)
        for node_id, service in dc.services.items():
            service.on_isolation = (
                lambda observer, isolated, k: calls.append(
                    (observer, isolated, k)))
        dc.cluster.add_scenario(crash(3, from_round=6))
        dc.run_rounds(16)
        assert len(calls) == 4
        assert {c[1] for c in calls} == {3}
        assert len({c[2] for c in calls}) == 1  # same round everywhere

    def test_on_view_change_callback(self):
        from repro.core.membership import MembershipService
        calls = []

        class Recorder(MembershipService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, on_view_change=(
                    lambda node, k, view: calls.append((node, k,
                                                        tuple(sorted(view))))),
                    **kwargs)

        mc = MembershipCluster(permissive(), seed=0, service_cls=Recorder)
        mc.cluster.add_scenario(crash(2, from_round=6))
        mc.run_rounds(16)
        assert calls
        assert all(view == (1, 3, 4) for _n, _k, view in calls)


class TestMixedDriving:
    def test_run_until_then_run_rounds(self):
        dc = DiagnosedCluster(permissive(), seed=0)
        dc.run_until(7.3e-3)  # mid round 2
        dc.run_rounds(5)
        assert dc.cluster.rounds_completed >= 7
        assert dc.consistent_health_history()

    def test_zero_rounds_noop(self):
        dc = DiagnosedCluster(permissive(), seed=0)
        dc.run_rounds(0)
        assert dc.cluster.now == pytest.approx(0.0, abs=1e-6)


class TestServiceGuards:
    def test_byzantine_flag_sets_notes(self):
        dc = DiagnosedCluster(permissive(), seed=0, byzantine_nodes=[2])
        assert dc.cluster.node(2).ground_truth.notes.get("byzantine")

    def test_active_nodes_tuple(self):
        config = uniform_config(4, penalty_threshold=2, reward_threshold=10)
        dc = DiagnosedCluster(config, seed=0)
        dc.cluster.add_scenario(crash(4, from_round=6))
        dc.run_rounds(16)
        assert dc.service(1).active_nodes() == (1, 2, 3)
        assert not dc.service(1).is_active(4)

    def test_counters_of_accessor(self):
        dc = DiagnosedCluster(permissive(), seed=0)
        dc.cluster.add_scenario(SenderFault(2, kind="benign", rounds=[6]))
        dc.run_rounds(12)
        penalty, reward = dc.service(3).counters_of(2)
        assert penalty == 1
        assert reward >= 1


class TestIsolatedVotesExcluded:
    def test_isolated_node_cannot_outvote(self):
        # After node 4 is isolated, its (ignored) frames contribute ε to
        # every vote; a later fault on node 2 is still detected 2:0.
        config = uniform_config(4, penalty_threshold=1, reward_threshold=10)
        dc = DiagnosedCluster(config, seed=0)
        dc.cluster.add_scenario(SenderFault(
            4, kind="benign", rounds=lambda k: 5 <= k <= 8))
        dc.cluster.add_scenario(SenderFault(2, kind="benign", rounds=[14]))
        dc.run_rounds(20)
        assert dc.service(1).active[3] == 0
        hv = dc.health_vectors(1)
        assert hv[14][1] == 0
        assert dc.consistent_health_history()
