"""Serial/parallel exactness of the experiment runner.

The contract of :mod:`repro.runner` is that the worker count is purely
an execution detail: ``jobs=1`` reproduces the in-process serial
execution of a campaign's specs exactly, and any ``jobs > 1``
reproduces ``jobs=1`` exactly
(explicit per-task seeds, task-order merging).  These tests pin both
halves of the contract plus the dispatch primitives themselves, as the
campaign engine exposes them.
"""

import pytest

from repro.campaign import (
    CampaignFailedError,
    run_campaign,
    table2_campaign,
    validation_campaign,
)
from repro.runner.backends import TaskError
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, execute, run_spec_dict

REPS = 2


def _serial(defn):
    """The in-process reference: every spec executed in task order."""
    return defn.aggregate([execute(s) for _label, s in defn.labeled_specs])


def _engine(defn, jobs):
    result = run_campaign(defn.labeled_specs, name=defn.name, jobs=jobs)
    result.raise_first_error()
    return defn.aggregate(result.results)


def _spec(seed=0, n_rounds=4, reducer=None):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=3,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        n_rounds=n_rounds,
        reducer=reducer,
    )


def _boom(reducer="no.such.reducer"):
    # An unknown reducer passes spec validation but raises in the
    # worker at reduce time: a deterministic always-failing task.
    return _spec(reducer=reducer)


def _run(specs, jobs):
    return run_campaign([(f"task-{i}", s) for i, s in enumerate(specs)],
                        jobs=jobs, retries=0, sleep=lambda _t: None)


def _reference(spec):
    return run_spec_dict(spec.to_dict())


class TestPool:
    def test_serial_preserves_task_order(self):
        specs = [_spec(seed=i, n_rounds=4 + i) for i in range(6)]
        result = _run(specs, jobs=1)
        assert result.results == [_reference(s) for s in specs]
        assert [r["rounds"] for r in result.results] == list(range(4, 10))

    def test_parallel_preserves_task_order(self):
        specs = [_spec(seed=i, n_rounds=4 + i) for i in range(12)]
        result = _run(specs, jobs=4)
        assert result.results == [_reference(s) for s in specs]

    def test_worker_exception_propagates(self):
        for jobs in (2, 1):
            with pytest.raises(CampaignFailedError,
                               match="ValueError: .*no.such.reducer"):
                _run([_boom()], jobs=jobs).raise_first_error()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collect_mode_keeps_sibling_results(self, jobs):
        specs = [_spec(seed=1), _boom(), _spec(seed=3)]
        results = _run(specs, jobs=jobs).results
        assert results[0] == _reference(specs[0])
        assert results[2] == _reference(specs[2])
        error = results[1]
        assert isinstance(error, TaskError)
        assert error.index == 1
        assert error.error_type == "ValueError"
        assert "no.such.reducer" in error.message
        assert not error.timed_out
        assert "ValueError" in error.traceback

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collect_mode_all_failures(self, jobs):
        results = _run([_boom(), _boom("other.missing")], jobs=jobs).results
        assert all(isinstance(r, TaskError) for r in results)
        assert [r.index for r in results] == [0, 1]

    def test_raise_mode_raises_first_error_in_task_order(self):
        specs = [_spec(seed=1), _boom("first.missing"),
                 _boom("second.missing")]
        with pytest.raises(CampaignFailedError,
                           match=r"first: task 1 \[task-1\].*first\.missing"):
            _run(specs, jobs=2).raise_first_error()


class TestValidationSweep:
    def test_task_grid_matches_campaign_shape(self):
        tasks = validation_campaign(repetitions=1, n_nodes=4).labeled_specs
        classes = [cls for cls, _ in tasks]
        # 12 burst classes + penalty-reward + 4 malicious + clique = 18.
        assert len(set(classes)) == 18
        assert len(tasks) == 18

    def test_jobs1_matches_serial_campaign(self):
        defn = validation_campaign(repetitions=REPS)
        serial = _serial(defn)
        sweep = _engine(defn, jobs=1)
        assert sweep.results == serial.results
        assert sweep.total_injections == serial.total_injections
        assert sweep.all_passed == serial.all_passed

    def test_jobs4_matches_jobs1(self):
        defn = validation_campaign(repetitions=REPS)
        one = _engine(defn, jobs=1)
        four = _engine(defn, jobs=4)
        assert four.results == one.results
        assert four.pass_rates() == one.pass_rates()


class TestTable2Sweep:
    def test_jobs_equivalence(self):
        defn = table2_campaign(seed=0)
        serial = _serial(defn)
        assert _engine(defn, jobs=1) == serial
        assert _engine(defn, jobs=4) == serial
