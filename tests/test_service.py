"""The service layer below HTTP: parsing, event logs, the job manager.

The acceptance contract mirrors the store's: the job id is a pure
content address (equal submissions collide by construction), an event
log replays byte-identically for any subscriber arriving at any time,
and the manager never executes the same work twice — concurrent
identical submissions attach to one run, warm-store submissions run
nothing at all, and a full queue pushes back instead of piling up.
"""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro.service.jobs as jobs_module
from repro.campaign import result_document, run_campaign
from repro.cli import main
from repro.obs.export import render_json
from repro.service import (
    BadRequestError,
    JobEventLog,
    JobManager,
    QueueFullError,
    ServiceClosedError,
    parse_job_request,
    sse_frame,
)
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec
from repro.store import ResultStore


def _spec(seed=0, n_rounds=8):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=3,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        n_rounds=n_rounds,
    )


def _manager(tmp_path, **kwargs):
    kwargs.setdefault("store_root", str(tmp_path / "store"))
    return JobManager(**kwargs)


def _wait(job, timeout=30.0):
    deadline = time.monotonic() + timeout
    while job.state not in ("done", "failed"):
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        time.sleep(0.01)
    return job


class TestParseJobRequest:
    def test_equivalent_shapes_share_one_job_id(self):
        spec_dict = _spec().to_dict()
        shapes = [
            spec_dict,                    # bare RunSpec
            {"spec": spec_dict},          # wrapped single
            {"specs": [spec_dict]},       # campaign wrapper
            [spec_dict],                  # bare array
        ]
        ids = {parse_job_request(shape).job_id for shape in shapes}
        assert len(ids) == 1

    def test_job_id_is_a_content_address(self):
        a = parse_job_request(_spec(seed=1).to_dict())
        b = parse_job_request(_spec(seed=2).to_dict())
        assert a.job_id != b.job_id
        again = parse_job_request(_spec(seed=1).to_dict())
        assert again.job_id == a.job_id

    def test_backend_override_keeps_the_job_id(self):
        # full_digest() excludes the backend (both engines compute the
        # same observables), so a vectorized request dedups onto a
        # stored event-engine result — same contract as the store.
        plain = parse_job_request(_spec().to_dict())
        overridden = parse_job_request(
            dict(_spec().to_dict(), backend="event"))
        assert overridden.job_id == plain.job_id
        assert overridden.request["backend"] == "event"

    def test_named_campaign_matches_build_campaign(self):
        from repro.campaign import build_campaign
        from repro.store import store_key

        request = parse_job_request(
            {"campaign": "validate", "reps": 1, "nodes": 4})
        definition = build_campaign("validate", reps=1, nodes=4)
        assert request.definition.name == "validate"
        assert request.keys == [store_key(spec) for _label, spec
                                in definition.labeled_specs]

    @pytest.mark.parametrize("body,needle", [
        ({"campaign": "nope"}, "unknown campaign"),
        ({"campaign": "validate", "reps": "three"}, "must be an integer"),
        ({"campaign": "validate", "reps": True}, "must be an integer"),
        ({"campaign": "validate", "bogus": 1}, "unknown field"),
        ({"specs": "not-a-list"}, "must be an array"),
        ([], "no specs"),
        (["not-an-object"], "must be a JSON object"),
        ("just a string", "JSON object or an array"),
        ({"spec": {"schema": "bad"}}, "spec #0"),
        (dict(_spec().to_dict(), backend="quantum"), "unknown backend"),
        (dict(_spec().to_dict(),
              protocol=dict(_spec().to_dict()["protocol"],
                            startup_rounds=-3)), "startup_rounds"),
        # Knob values the protocol rejects, and knobs enumerating no
        # tasks (which would all share the empty key list's job id).
        ({"campaign": "validate", "nodes": 1}, "n_nodes must be >= 2"),
        ({"campaign": "rare-events", "nodes": 1}, "n_nodes must be >= 2"),
        ({"campaign": "validate", "reps": 0}, "has no tasks"),
        ({"campaign": "validate", "reps": -1}, "has no tasks"),
        ({"campaign": "rare-events", "reps": 0}, "has no tasks"),
        ({"campaign": "rare-events", "reps": -2}, "has no tasks"),
        # Knobs above their range are refused before any spec is built.
        ({"campaign": "rare-events", "reps": 1001}, r"must be in 1\.\.1000"),
        ({"campaign": "validate", "reps": 1001}, r"must be in 1\.\.1000"),
        ({"campaign": "validate", "nodes": 65}, r"must be in 2\.\.64"),
        # Sections of the wrong JSON type, and the execution-strategy
        # knobs schema 2 removed.
        (dict(_spec().to_dict(), schedule=[1]),
         "'schedule' must be an object"),
        (dict(_spec().to_dict(), schedule="static"),
         "'schedule' must be an object"),
        (dict(_spec().to_dict(), variant=[]), "'variant' must be an object"),
        (dict(_spec().to_dict(), scenarios={"type": "SlotBurst"}),
         "list of objects"),
        (dict(_spec().to_dict(),
              scenarios=[{"type": "SlotBurst", "params": [6, 2]}]),
         "params must be an object"),
        (dict(_spec().to_dict(), variant={"fast_path": False}),
         "variant.fast_path"),
    ])
    def test_bad_requests_are_client_errors(self, body, needle):
        with pytest.raises(BadRequestError, match=needle):
            parse_job_request(body)

    @pytest.mark.parametrize("text,needle", [
        ('{"n_rounds": 3}', "spec #0: 'protocol'"),
        ("[1, 2]", "spec #0 must be a JSON object, got int"),
        ('{"protocol": {"n_nodes": 4}}', "spec #0: "),
        ("not json", "not valid JSON"),
        ("[]", "submission contains no specs"),
        ('{"protocol": {"n_nodes": 4, "penalty_threshold": 3, '
         '"reward_threshold": 5, "criticalities": [1, 1, 1, 1]}, '
         '"schedule": [1]}', "spec #0: RunSpec field 'schedule'"),
        ('{"protocol": {"n_nodes": 4, "penalty_threshold": 3, '
         '"reward_threshold": 5, "criticalities": [1, 1, 1, 1]}, '
         '"schedule": "static"}', "spec #0: RunSpec field 'schedule'"),
        ('{"protocol": {"n_nodes": 4, "penalty_threshold": 3, '
         '"reward_threshold": 5, "criticalities": [1, 1, 1, 1]}, '
         '"scenarios": [{"type": "SlotBurst", "params": "x"}]}',
         "spec #0: scenario params must be an object"),
        ('{"protocol": {"n_nodes": 4, "penalty_threshold": 3, '
         '"reward_threshold": 5, "criticalities": [1, 1, 1, 1]}, '
         '"variant": {"bitset": true}, "spec": "repro-runspec/2"}',
         "spec #0: variant.bitset"),
    ])
    def test_malformed_spec_files_are_client_errors(self, tmp_path, capsys,
                                                    text, needle):
        # One parser behind every surface: the service answers 400 (an
        # undecodable body is rejected by the app before parsing), and
        # `run` / `campaign run` print the same message and exit 2.
        try:
            data = json.loads(text)
        except ValueError:
            pass
        else:
            with pytest.raises(BadRequestError) as excinfo:
                parse_job_request(data)
            assert needle in str(excinfo.value)
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["run", str(path)],
                     ["campaign", "run", str(path), "--no-store"]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err, argv
            assert "Traceback" not in err

    def test_importing_the_service_loads_no_experiment_module(self):
        # The experiments package (ten modules) loads lazily, with the
        # first job whose reducer lives there — not at server start.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "src")
        code = ("import sys, repro.service; print(sorted(m for m in "
                "sys.modules if m.startswith('repro.experiments')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestJobEventLog:
    def test_replay_is_the_log(self):
        log = JobEventLog()
        for i in range(5):
            log.append("tick", {"i": i})
        log.close()
        assert [e[0] for e in log.events()] == [0, 1, 2, 3, 4]
        assert log.events(after=2) == log.events()[3:]
        assert len(log) == 5

    def test_subscribers_see_identical_byte_sequences(self):
        import asyncio

        log = JobEventLog()

        async def drive():
            # An early subscriber tails the log while a worker thread
            # appends; a late subscriber replays after close.  Both
            # must produce identical SSE bytes.
            async def collect():
                frames = b""
                async for seq, kind, frame in log.subscribe():
                    # Frames are encoded once, at append.
                    assert frame == sse_frame(seq, kind, {"i": seq})
                    frames += frame
                return frames

            early = asyncio.ensure_future(collect())
            await asyncio.sleep(0)

            def producer():
                for i in range(20):
                    log.append("tick", {"i": i})
                log.close()

            thread = threading.Thread(target=producer)
            thread.start()
            early_bytes = await early
            thread.join()
            late_bytes = await collect()
            return early_bytes, late_bytes

        early_bytes, late_bytes = asyncio.run(drive())
        assert early_bytes == late_bytes
        assert early_bytes.count(b"\n\n") == 20

    def test_resume_from_last_event_id(self):
        import asyncio

        log = JobEventLog()
        for i in range(4):
            log.append("tick", {"i": i})
        log.close()

        async def tail(after):
            return [seq async for seq, _k, _d in log.subscribe(after)]

        assert asyncio.run(tail(1)) == [2, 3]
        assert asyncio.run(tail(99)) == []

    def test_overflow_drops_oldest(self):
        log = JobEventLog(max_events=3)
        for i in range(10):
            log.append("tick", {"i": i})
        assert [e[0] for e in log.events()] == [7, 8, 9]
        assert len(log) == 10  # sequence numbers keep counting

    def test_append_after_close_is_an_error(self):
        log = JobEventLog()
        log.close()
        with pytest.raises(RuntimeError):
            log.append("tick", {})

    def test_sse_frame_shape(self):
        frame = sse_frame(7, "task", {"b": 2, "a": 1})
        assert frame == b'id: 7\nevent: task\ndata: {"a":1,"b":2}\n\n'


class TestJobManager:
    def test_cold_submission_runs_and_documents(self, tmp_path):
        manager = _manager(tmp_path)
        try:
            outcome = manager.submit(parse_job_request(_spec().to_dict()))
            assert outcome.outcome == "created"
            job = _wait(outcome.job)
            assert job.state == "done"
            assert (job.hits, job.misses) == (0, 1)
            assert json.loads(job.result_bytes())["schema"].startswith(
                "repro-campaign-result/")
            assert job.log.closed
            kinds = [kind for _s, kind, _d in job.log.events()]
            assert kinds[0] == "state" and kinds[-1] == "done"
        finally:
            manager.shutdown()

    def test_document_bytes_match_campaign_run(self, tmp_path):
        # The acceptance bar: the service's document is byte-identical
        # to what `repro-diag campaign run --out` writes for the same
        # submission (documents are cache-state independent).
        request = parse_job_request({"specs": [_spec().to_dict(),
                                               _spec(seed=1).to_dict()]})
        with ResultStore(str(tmp_path / "cli-store")) as store:
            result = run_campaign(request.definition.labeled_specs,
                                  name=request.definition.name,
                                  store=store)
            expected = render_json(
                result_document(request.definition, result))
        manager = _manager(tmp_path)
        try:
            job = _wait(manager.submit(request).job)
            assert job.result_bytes() == expected.encode("utf-8")
        finally:
            manager.shutdown()

    def test_concurrent_identical_submissions_execute_once(self, tmp_path,
                                                           monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign
        executions = []

        def gated(*args, **kwargs):
            executions.append(threading.get_ident())
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        manager = _manager(tmp_path, workers=4)
        try:
            request = parse_job_request(_spec().to_dict())
            outcomes = []

            def post():
                outcomes.append(manager.submit(request))

            threads = [threading.Thread(target=post) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            gate.set()
            jobs = {o.job.job_id for o in outcomes}
            assert len(jobs) == 1
            assert sorted(o.outcome for o in outcomes) == \
                ["attached", "attached", "attached", "created"]
            job = _wait(outcomes[0].job)
            assert job.state == "done"
            # Exactly one simulation execution, by every counter.
            assert len(executions) == 1
            snapshot = manager.metrics_snapshot()
            counters = snapshot["service"]["counters"]
            assert counters["service.submitted"] == 4
            assert counters["service.created"] == 1
            assert counters["service.attached"] == 3
            assert counters["service.executed_tasks"] == 1
        finally:
            gate.set()
            manager.shutdown()

    def test_attach_after_completion_is_cached(self, tmp_path):
        manager = _manager(tmp_path)
        try:
            request = parse_job_request(_spec().to_dict())
            _wait(manager.submit(request).job)
            again = manager.submit(request)
            assert again.outcome == "attached"
            assert again.cached  # no second execution
        finally:
            manager.shutdown()

    def test_warm_store_submission_executes_nothing(self, tmp_path):
        request = parse_job_request(_spec().to_dict())
        first = _manager(tmp_path)
        try:
            _wait(first.submit(request).job)
        finally:
            first.shutdown()
        # A fresh manager over the same store: the POST is answered
        # inline from the index, done before submit() returns.
        second = _manager(tmp_path)
        try:
            outcome = second.submit(request)
            assert outcome.outcome == "cached"
            assert outcome.job.state == "done"
            assert outcome.job.cached
            assert (outcome.job.hits, outcome.job.misses) == (1, 0)
            counters = second.metrics_snapshot()["service"]["counters"]
            assert counters["service.cached"] == 1
            assert counters.get("service.executed_tasks", 0) == 0
        finally:
            second.shutdown()

    def test_full_queue_rejects_with_429_payload(self, tmp_path,
                                                 monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        manager = _manager(tmp_path, workers=1, queue_limit=1)
        try:
            first = manager.submit(parse_job_request(_spec().to_dict()))
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(parse_job_request(_spec(seed=1).to_dict()))
            assert excinfo.value.limit == 1
            counters = manager.metrics_snapshot()["service"]["counters"]
            assert counters["service.rejected"] == 1
            # Attaching to the in-flight job is NOT back-pressure...
            attach = manager.submit(parse_job_request(_spec().to_dict()))
            assert attach.outcome == "attached"
            gate.set()
            _wait(first.job)
            # ...and capacity frees once the job retires.
            ok = manager.submit(parse_job_request(_spec(seed=1).to_dict()))
            assert ok.outcome == "created"
            _wait(ok.job)
        finally:
            gate.set()
            manager.shutdown()

    def test_failed_tasks_surface_structured_errors(self, tmp_path):
        bad = _spec().with_updates(reducer="no.such.reducer")
        manager = _manager(tmp_path, retries=0)
        try:
            job = _wait(manager.submit(
                parse_job_request(bad.to_dict())).job)
            assert job.state == "failed"
            (error,) = job.errors
            assert error["type"] and error["message"]
            assert error["timed_out"] is False
            kinds = [kind for _s, kind, _d in job.log.events()]
            assert "task_failed" in kinds and kinds[-1] == "failed"
        finally:
            manager.shutdown()

    def test_shutdown_drains_and_leaves_store_resumable(self, tmp_path,
                                                        monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        manager = _manager(tmp_path, workers=1)
        request = parse_job_request(_spec().to_dict())
        outcome = manager.submit(request)
        releaser = threading.Timer(0.1, gate.set)
        releaser.start()
        try:
            manager.shutdown()  # drains: returns only once the job ran
        finally:
            releaser.cancel()
            gate.set()
        assert outcome.job.state == "done"
        with pytest.raises(ServiceClosedError):
            manager.submit(request)
        # The drained job's commits are durable: a new manager answers
        # the same submission warm, executing nothing.
        monkeypatch.setattr(jobs_module, "run_campaign", real)
        second = _manager(tmp_path)
        try:
            assert second.submit(request).outcome == "cached"
        finally:
            second.shutdown()

    def test_shutdown_without_drain_fails_queued_jobs(self, tmp_path,
                                                      monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        manager = _manager(tmp_path, workers=1, queue_limit=4)
        running = manager.submit(parse_job_request(_spec().to_dict()))
        queued = manager.submit(parse_job_request(_spec(seed=1).to_dict()))
        releaser = threading.Timer(0.1, gate.set)
        releaser.start()
        try:
            manager.shutdown(drain=False)
        finally:
            releaser.cancel()
            gate.set()
        assert running.job.state == "done"
        assert queued.job.state == "failed"
        assert queued.job.errors[0]["type"] == "ServiceShutdown"
        assert queued.job.log.closed
