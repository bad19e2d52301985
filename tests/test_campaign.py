"""The campaign engine: store-first execution, resume, fault tolerance.

The acceptance contract: a campaign run twice hits the store 100% on
the second pass with byte-identical results and merged metrics to an
uncached ``jobs=1`` run; a killed campaign resumes into the same
bytes; an always-failing task is retried with backoff and surfaced as
a structured error without aborting the rest of the sweep.
"""

import gc
import json
import os
import sys
import time
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignState,
    InterruptedCampaignError,
    build_campaign,
    campaign_id,
    campaign_tasks,
    result_document,
    run_campaign,
    table2_campaign,
    validation_campaign,
)
from repro.campaign.engine import TaskTimeout, _deadline
from repro.obs import MetricsRegistry
from repro.runner.backends import TaskError
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec, execute
from repro.store import ResultStore

REPS = 1


def _spec(seed=0, n_rounds=8, reducer=None):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=3,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        n_rounds=n_rounds,
        reducer=reducer,
    )


def _serial(defn):
    """The in-process reference: every spec executed in task order."""
    return defn.aggregate([execute(s) for _label, s in defn.labeled_specs])


def _engine(defn, **kwargs):
    result = run_campaign(defn.labeled_specs, name=defn.name, **kwargs)
    result.raise_first_error()
    return defn.aggregate(result.results)


def _failing_spec(seed=0):
    # An unknown reducer passes spec validation but raises in the
    # worker at reduce time: a deterministic always-failing task.
    return _spec(seed=seed, reducer="no.such.reducer")


@pytest.fixture
def store(tmp_path):
    with ResultStore(str(tmp_path / "store")) as s:
        yield s


class TestStoreFirstExecution:
    def test_second_pass_hits_100_percent(self, tmp_path):
        defn = validation_campaign(repetitions=REPS)
        metrics = MetricsRegistry()
        with ResultStore(str(tmp_path), metrics=metrics) as store:
            cold = run_campaign(defn.labeled_specs, store=store)
            warm = run_campaign(defn.labeled_specs, store=store)
        total = len(defn.labeled_specs)
        assert (cold.hits, cold.misses) == (0, total)
        assert (warm.hits, warm.misses) == (total, 0)
        counters = metrics.snapshot()["counters"]
        assert counters["store.miss"] == total
        assert counters["store.hit"] == total

    def test_warm_run_byte_identical_to_uncached_jobs1(self, store):
        defn = validation_campaign(repetitions=REPS)
        uncached = run_campaign(defn.labeled_specs, jobs=1)
        run_campaign(defn.labeled_specs, store=store)
        warm = run_campaign(defn.labeled_specs, store=store)
        assert warm.results == uncached.results
        assert warm.merged_snapshot() == uncached.merged_snapshot()
        doc_warm = result_document(defn, warm)
        doc_ref = result_document(defn, uncached)
        assert json.dumps(doc_warm, sort_keys=True) == \
            json.dumps(doc_ref, sort_keys=True)

    def test_jobs_equivalence_through_engine(self, store):
        defn = validation_campaign(repetitions=REPS)
        serial = run_campaign(defn.labeled_specs, jobs=1)
        parallel = run_campaign(defn.labeled_specs, jobs=4)
        assert parallel.results == serial.results
        assert parallel.merged_snapshot() == serial.merged_snapshot()

    def test_aggregates_match_serial_campaigns(self, store):
        defn = validation_campaign(repetitions=REPS)
        serial = _serial(defn)
        assert _engine(defn, store=store).results == serial.results
        # second pass: pure cache replay, same aggregate
        assert _engine(defn, store=store).results == serial.results

    def test_table2_through_store(self, store):
        defn = table2_campaign(seed=0)
        serial = _serial(defn)
        assert _engine(defn, store=store) == serial
        assert _engine(defn, store=store) == serial


class TestCheckpointResume:
    def test_partial_store_resumes_without_rerunning(self, store):
        defn = validation_campaign(repetitions=REPS)
        tasks = campaign_tasks(defn.labeled_specs)
        # Simulate a killed campaign: only the first half committed.
        half = len(tasks) // 2
        reference = run_campaign(defn.labeled_specs, jobs=1)
        for task, result, snapshot in zip(tasks[:half], reference.results,
                                          reference.snapshots):
            store.put(task.key, {"result": result, "snapshot": snapshot})
        resumed = run_campaign(defn.labeled_specs, store=store)
        assert resumed.hits == half
        assert resumed.misses == len(tasks) - half
        assert resumed.results == reference.results
        assert resumed.merged_snapshot() == reference.merged_snapshot()

    def test_unfinished_state_requires_resume_flag(self, store):
        defn = validation_campaign(repetitions=REPS)
        tasks = campaign_tasks(defn.labeled_specs)
        cid = campaign_id(t.key for t in tasks)
        CampaignState(campaign_id=cid, name="validate",
                      keys=[t.key for t in tasks]).save(store)
        with pytest.raises(InterruptedCampaignError, match="--resume"):
            run_campaign(defn.labeled_specs, store=store)
        # resume=True proceeds and completes the record
        result = run_campaign(defn.labeled_specs, store=store, resume=True)
        assert result.ok
        assert store.campaigns(cid)[0]["status"] == "completed"

    def test_refusal_names_the_done_count_from_the_store(self, store):
        specs = [("t%d" % i, _spec(seed=i)) for i in range(3)]
        run_campaign(specs[:1], store=store)
        tasks = campaign_tasks(specs)
        CampaignState(campaign_id=campaign_id(t.key for t in tasks),
                      name="campaign", keys=[t.key for t in tasks]
                      ).save(store)
        with pytest.raises(InterruptedCampaignError,
                           match=r"\(1/3 done in the store\)"):
            run_campaign(specs, store=store)

    def test_state_file_tracks_progress(self, store):
        # Progress is read from the index: the record's keys joined
        # with the committed entries.
        defn = validation_campaign(repetitions=REPS)
        run_campaign(defn.labeled_specs, store=store, name="validate")
        tasks = campaign_tasks(defn.labeled_specs)
        [record] = store.campaigns(campaign_id(t.key for t in tasks))
        assert record["name"] == "validate"
        assert record["status"] == "completed"
        assert record["done"] == record["total"] == len(tasks)
        assert record["failed"] == 0

    @pytest.mark.parametrize("n_tasks", [1, 6])
    def test_record_written_twice_whatever_the_task_count(
            self, store, monkeypatch, n_tasks):
        saves = []
        real = CampaignState.save

        def counted(record, target):
            saves.append(record.status)
            return real(record, target)

        monkeypatch.setattr(CampaignState, "save", counted)
        specs = [("t%d" % i, _spec(seed=i)) for i in range(n_tasks)]
        run_campaign(specs, store=store)
        assert saves == ["running", "completed"]
        # a warm re-run writes its record twice as well
        run_campaign(specs, store=store)
        assert len(saves) == 4
        # the record lives in the index: no file per campaign
        assert sorted(os.listdir(store.root)) == ["index.sqlite", "shards"]


class TestFaultTolerance:
    def test_empty_campaign_returns_empty_result(self, store):
        # An empty spec list is a valid degenerate campaign: it must
        # return an empty (and ok) result without writing a campaign
        # record or spinning up any backend.
        result = run_campaign([], store=store)
        assert result.tasks == []
        assert result.results == []
        assert result.snapshots == []
        assert result.ok
        assert store.campaigns() == []

    def test_failing_task_does_not_abort_siblings(self):
        sleeps = []
        metrics = MetricsRegistry()
        result = run_campaign(
            [("ok", _spec(seed=1)), ("boom", _failing_spec())],
            retries=2, metrics=metrics, sleep=sleeps.append)
        assert not isinstance(result.results[0], TaskError)
        assert isinstance(result.results[1], TaskError)
        error = result.results[1]
        assert error.index == 1
        assert error.error_type == "ValueError"
        assert "no.such.reducer" in error.message
        # bounded exponential backoff: one sleep per retry round
        assert sleeps == [0.25, 0.5]
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.retries"] == 2
        assert counters["campaign.failed"] == 1

    def test_unsupported_spec_error_fails_without_retry(self):
        # A property of the spec recurs on every attempt: the task fails
        # on its first one, with no retry and no backoff sleep, while
        # its sibling completes.
        pytest.importorskip("numpy")
        sleeps = []
        metrics = MetricsRegistry()
        event_only = replace(_spec(seed=2, reducer="validation.burst"),
                             backend="vectorized")
        result = run_campaign(
            [("ok", _spec(seed=1)), ("event-only", event_only)],
            retries=2, metrics=metrics, sleep=sleeps.append)
        assert not isinstance(result.results[0], TaskError)
        error = result.results[1]
        assert isinstance(error, TaskError)
        assert error.error_type == "UnsupportedSpecError"
        assert "validation.burst" in error.message
        assert sleeps == []
        assert result.retried == 0
        counters = metrics.snapshot()["counters"]
        assert "campaign.retries" not in counters
        assert counters["campaign.task_errors"] == 1
        assert counters["campaign.failed"] == 1

    def test_backoff_is_capped(self):
        sleeps = []
        run_campaign([("boom", _failing_spec())], retries=5,
                     backoff=1.0, max_backoff=2.0, sleep=sleeps.append)
        assert sleeps == [1.0, 2.0, 2.0, 2.0, 2.0]

    def test_timeout_surfaces_as_structured_error(self):
        slow = _spec(seed=3, n_rounds=200000)
        result = run_campaign([("slow", slow)], retries=0,
                              task_timeout=0.05, sleep=lambda _t: None)
        assert isinstance(result.results[0], TaskError)
        assert result.results[0].timed_out

    @staticmethod
    def _lose_first_expiry(monkeypatch, seconds):
        """A gc callback that busy-waits once, so the first SIGALRM lands
        inside it; Python discards what a gc callback raises and hands
        it to ``sys.unraisablehook``, which here only records it."""
        lost = []
        monkeypatch.setattr(sys, "unraisablehook", lost.append)
        state = {"spun": False}

        def spin(phase, _info):
            if phase == "start" and not state["spun"]:
                state["spun"] = True
                end = time.perf_counter() + seconds
                while time.perf_counter() < end:
                    pass

        gc.callbacks.append(spin)
        return spin, lost

    def test_deadline_lost_in_gc_callback_still_fires(self, monkeypatch):
        # The first expiry is discarded; the re-firing timer must still
        # stop a body that runs on.
        spin, lost = self._lose_first_expiry(monkeypatch, 0.2)
        start = time.perf_counter()
        try:
            with pytest.raises(TaskTimeout):
                with _deadline(0.05):
                    gc.collect()
                    while time.perf_counter() - start < 0.55:
                        pass
        finally:
            gc.callbacks.remove(spin)
        assert time.perf_counter() - start < 0.5
        assert any(isinstance(u.exc_value, TaskTimeout) for u in lost)

    def test_deadline_lost_in_gc_callback_raises_on_exit(self, monkeypatch):
        # A body that finishes right after its lost expiry still
        # reports the timeout.
        spin, lost = self._lose_first_expiry(monkeypatch, 0.2)
        try:
            with pytest.raises(TaskTimeout):
                with _deadline(0.05):
                    gc.collect()
        finally:
            gc.callbacks.remove(spin)
        assert any(isinstance(u.exc_value, TaskTimeout) for u in lost)

    def test_timeout_in_pool_keeps_siblings(self):
        slow = _spec(seed=3, n_rounds=200000)
        result = run_campaign([("slow", slow), ("ok", _spec(seed=1))],
                              jobs=2, retries=0, task_timeout=0.1,
                              sleep=lambda _t: None)
        assert isinstance(result.results[0], TaskError)
        assert not isinstance(result.results[1], TaskError)

    def test_failed_tasks_recorded_in_state(self, store):
        result = run_campaign([("boom", _failing_spec())], store=store,
                              retries=0, sleep=lambda _t: None)
        assert not result.ok
        [record] = store.campaigns()
        assert (record["status"], record["failed"]) == ("failed", 1)
        assert (record["done"], record["total"]) == (0, 1)

    def test_failures_excluded_from_result_document(self):
        defn = build_campaign("validate", reps=REPS)
        result = run_campaign(
            [("boom", _failing_spec())], retries=0, sleep=lambda _t: None)
        doc = result_document(defn, result)
        assert doc["tasks"][0]["error"]["type"] == "ValueError"
        assert "result" not in doc["tasks"][0]


class TestDefinitions:
    def test_table2_definition_matches_reference(self):
        defn = table2_campaign(seed=0)
        assert _engine(defn) == _serial(defn)

    def test_render_produces_tables(self):
        defn = validation_campaign(repetitions=REPS)
        result = run_campaign(defn.labeled_specs)
        text = defn.render(defn.aggregate(result.results))
        assert "all passed: True" in text

    def test_build_campaign_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            build_campaign("figure9")

    @pytest.mark.parametrize("name,knobs", [
        ("validate", {"reps": 1, "nodes": 5}),
        ("table2", {"seed": 3}),
        ("rare-events", {"reps": 2, "seed": 7}),
    ])
    def test_document_params_rebuild_the_same_campaign(self, name, knobs):
        built = build_campaign(name, **knobs)
        rebuilt = build_campaign(name, **built.params)
        assert rebuilt.params == built.params
        assert rebuilt.labeled_specs == built.labeled_specs
