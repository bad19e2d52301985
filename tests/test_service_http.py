"""The HTTP surface end to end: real sockets, real SSE streams.

Every test drives the stdlib asyncio server over loopback with
urllib — no HTTP client dependency — and pins the wire-level
contracts: response codes, dedup semantics, SSE replay determinism,
and byte-identity between ``GET .../result`` and the documents
``repro-diag campaign run --out`` writes.
"""

import asyncio
import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.service.app as app_module
import repro.service.jobs as jobs_module
from repro.campaign import result_document, run_campaign
from repro.obs.export import render_json
from repro.service import JobManager, ServiceThread, create_app
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


@contextlib.contextmanager
def _serve(tmp_path, **kwargs):
    kwargs.setdefault("store_root", str(tmp_path / "store"))
    manager = JobManager(**kwargs)
    server = ServiceThread(create_app(manager))
    server.start()
    try:
        yield server.url, manager
    finally:
        server.stop()
        manager.shutdown()


def _request(url, data=None, headers=None):
    """(status, headers, body-bytes) for one request; errors included."""
    req = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _post_job(url, body_dict):
    status, headers, body = _request(
        url + "/v1/jobs", data=json.dumps(body_dict).encode("utf-8"))
    return status, json.loads(body)


def _wait_done(url, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while True:
        status, _h, body = _request(f"{url}/v1/jobs/{job_id}")
        assert status == 200
        detail = json.loads(body)
        if detail["state"] in ("done", "failed"):
            return detail
        assert time.monotonic() < deadline, "job never finished"
        time.sleep(0.02)


def test_submission_is_parsed_off_the_event_loop(tmp_path, monkeypatch):
    # Parsing builds and digests every spec of a submission; on the
    # loop's thread it would stall every other request meanwhile.
    parse = app_module.parse_job_request
    on_loop = []

    def recording_parse(data):
        try:
            asyncio.get_running_loop()
            on_loop.append(True)
        except RuntimeError:
            on_loop.append(False)
        return parse(data)

    monkeypatch.setattr(app_module, "parse_job_request", recording_parse)
    with _serve(tmp_path) as (url, _manager):
        status, _created = _post_job(url, _spec().to_dict())
        assert status == 201
        status, error = _post_job(url, {"campaign": "nope"})
        assert status == 400 and "unknown campaign" in error["error"]
    assert on_loop == [False, False]


class TestHappyPath:
    def test_submit_poll_fetch(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            status, created = _post_job(url, _spec().to_dict())
            assert status == 201
            assert created["outcome"] == "created"
            assert created["cached"] is False
            job_id = created["job_id"]
            detail = _wait_done(url, job_id)
            assert detail["state"] == "done"
            assert (detail["hits"], detail["misses"]) == (0, 1)
            status, headers, body = _request(
                f"{url}/v1/jobs/{job_id}/result")
            assert status == 200
            assert headers["content-type"] == "application/json"
            doc = json.loads(body)
            assert doc["schema"].startswith("repro-campaign-result/")
            listing = json.loads(_request(url + "/v1/jobs")[2])
            assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_result_bytes_match_campaign_run_out(self, tmp_path):
        # The acceptance bar: the service serves the exact bytes
        # `repro-diag campaign run --out` writes for the same inputs.
        from repro.service.serialization import parse_job_request

        body_dict = {"specs": [_spec().to_dict(),
                               _spec(seed=1).to_dict()]}
        request = parse_job_request(body_dict)
        with ResultStore(str(tmp_path / "cli-store")) as store:
            result = run_campaign(request.definition.labeled_specs,
                                  name=request.definition.name,
                                  store=store)
            expected = render_json(
                result_document(request.definition, result))
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, body_dict)
            _wait_done(url, created["job_id"])
            _s, _h, served = _request(
                f"{url}/v1/jobs/{created['job_id']}/result?format=json")
            assert served == expected.encode("utf-8")

    def test_second_post_is_cached(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            _wait_done(url, created["job_id"])
            status, again = _post_job(url, _spec().to_dict())
            assert status == 200
            assert again["cached"] is True
            assert again["deduped"] is True
            assert again["job_id"] == created["job_id"]

    def test_warm_store_post_returns_done_immediately(self, tmp_path):
        body = _spec().to_dict()
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, body)
            _wait_done(url, created["job_id"])
        # New manager, same store root: answered from the index.
        with _serve(tmp_path) as (url, manager):
            status, warm = _post_job(url, body)
            assert status == 200
            assert warm["state"] == "done"
            assert warm["cached"] is True
            assert warm["outcome"] == "cached"
            assert (warm["hits"], warm["misses"]) == (1, 0)
            counters = manager.metrics_snapshot()["service"]["counters"]
            assert counters.get("service.executed_tasks", 0) == 0

    def test_rendered_formats(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(
                url, {"campaign": "rare-events", "reps": 1, "nodes": 4})
            job_id = created["job_id"]
            assert _wait_done(url, job_id)["state"] == "done"
            for fmt, content_type, needle in [
                    ("html", "text/html; charset=utf-8",
                     b'<table class="repro-results">'),
                    ("md", "text/markdown; charset=utf-8", b"| --- |"),
                    ("csv", "text/csv; charset=utf-8", b"p_gb"),
                    ("ascii", "text/plain; charset=utf-8", b"p_gb"),
            ]:
                status, headers, body = _request(
                    f"{url}/v1/jobs/{job_id}/result?format={fmt}")
                assert status == 200, fmt
                assert headers["content-type"] == content_type
                assert needle in body, fmt

    def test_table_formats_match_the_in_memory_document(self, tmp_path):
        # A finished job keeps only its result bytes; the table formats
        # parse them and must render exactly what the document itself
        # renders to.
        from repro.campaign import build_campaign
        from repro.results.render import render_tables
        from repro.results.source import parse_document, tables_for_document

        body = {"campaign": "rare-events", "reps": 2, "nodes": 4}
        definition = build_campaign("rare-events", reps=2, nodes=4)
        result = run_campaign(definition.labeled_specs,
                              name=definition.name)
        tables = tables_for_document(
            parse_document(result_document(definition, result)))
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, body)
            job_id = created["job_id"]
            assert _wait_done(url, job_id)["state"] == "done"
            for fmt, renderer in (("ascii", "ascii"), ("md", "markdown"),
                                  ("tex", "latex"), ("csv", "csv"),
                                  ("html", "html")):
                _s, _h, served = _request(
                    f"{url}/v1/jobs/{job_id}/result?format={fmt}")
                expected = render_tables(tables, renderer) + "\n"
                assert served == expected.encode("utf-8"), fmt


class TestDedupOverHTTP:
    def test_concurrent_posts_execute_one_simulation(self, tmp_path,
                                                     monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign
        executions = []

        def gated(*args, **kwargs):
            executions.append(1)
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        with _serve(tmp_path, workers=4) as (url, manager):
            body = _spec().to_dict()
            responses = []

            def post():
                responses.append(_post_job(url, body))

            threads = [threading.Thread(target=post) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            gate.set()
            assert sorted(status for status, _ in responses) == \
                [200, 200, 201]
            ids = {payload["job_id"] for _s, payload in responses}
            assert len(ids) == 1
            _wait_done(url, ids.pop())
            assert len(executions) == 1
            counters = manager.metrics_snapshot()["service"]["counters"]
            assert counters["service.created"] == 1
            assert counters["service.attached"] == 2
            assert counters["service.executed_tasks"] == 1


class TestBackpressure:
    def test_full_queue_is_429(self, tmp_path, monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        with _serve(tmp_path, workers=1, queue_limit=1) as (url, _m):
            status, first = _post_job(url, _spec().to_dict())
            assert status == 201
            status, rejected = _post_job(url, _spec(seed=1).to_dict())
            assert status == 429
            assert rejected["queue_limit"] == 1
            assert "retry" in rejected["error"]
            # Dedup onto the in-flight job still succeeds at 200.
            status, attached = _post_job(url, _spec().to_dict())
            assert status == 200
            assert attached["outcome"] == "attached"
            gate.set()
            _wait_done(url, first["job_id"])
            status, _ok = _post_job(url, _spec(seed=1).to_dict())
            assert status == 201


class TestSSE:
    def _read_stream(self, url, timeout=30):
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            assert resp.headers["content-type"] == \
                "text/event-stream; charset=utf-8"
            return resp.read()

    def test_late_subscriber_replays_identical_bytes(self, tmp_path,
                                                     monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            events_url = f"{url}/v1/jobs/{created['job_id']}/events"
            # Early subscriber connects while the job is gated, so it
            # observes events arriving live...
            live = {}

            def subscribe_live():
                live["bytes"] = self._read_stream(events_url)

            watcher = threading.Thread(target=subscribe_live)
            watcher.start()
            time.sleep(0.1)
            gate.set()
            watcher.join(timeout=30)
            assert not watcher.is_alive()
            _wait_done(url, created["job_id"])
            # ...and a late subscriber replaying after completion gets
            # byte-for-byte the same stream.
            replay = self._read_stream(events_url)
            assert replay == live["bytes"]
            assert b"event: done\n" in replay

    def test_event_sequence_is_ordered_and_complete(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            _wait_done(url, created["job_id"])
            raw = self._read_stream(
                f"{url}/v1/jobs/{created['job_id']}/events")
            frames = [f for f in raw.decode().split("\n\n") if f]
            ids = [int(f.splitlines()[0].split(": ")[1]) for f in frames]
            kinds = [f.splitlines()[1].split(": ")[1] for f in frames]
            assert ids == list(range(len(frames)))
            assert kinds[0] == "state"
            assert "plan" in kinds and "task" in kinds
            assert kinds[-1] == "done"

    def test_after_query_resumes_mid_log(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            _wait_done(url, created["job_id"])
            full = self._read_stream(
                f"{url}/v1/jobs/{created['job_id']}/events")
            partial = self._read_stream(
                f"{url}/v1/jobs/{created['job_id']}/events?after=1")
            assert partial in full
            assert partial.startswith(b"id: 2\n")


class TestErrorsAndIntrospection:
    def test_client_errors(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            status, _h, body = _request(url + "/v1/jobs",
                                        data=b"{not json")
            assert status == 400
            assert b"not valid JSON" in body
            status, payload = _post_job(url, {"campaign": "nope"})
            assert status == 400
            assert "unknown campaign" in payload["error"]
            status, payload = _post_job(
                url, dict(_spec().to_dict(), schedule=[1]))
            assert status == 400
            assert "'schedule' must be an object" in payload["error"]
            status, _h, _b = _request(url + "/v1/jobs/deadbeef")
            assert status == 404
            status, _h, _b = _request(url + "/v1/nothing")
            assert status == 404
            status, _h, _b = _request(url + "/v1/jobs/deadbeef/events",
                                      data=b"{}")  # POST to a GET route
            assert status == 405

    def test_result_before_completion_is_409(self, tmp_path,
                                             monkeypatch):
        gate = threading.Event()
        real = jobs_module.run_campaign

        def gated(*args, **kwargs):
            assert gate.wait(timeout=30)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "run_campaign", gated)
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            status, _h, body = _request(
                f"{url}/v1/jobs/{created['job_id']}/result")
            assert status == 409
            assert json.loads(body)["state"] in ("queued", "running")
            gate.set()
            _wait_done(url, created["job_id"])
            status, _h, _b = _request(
                f"{url}/v1/jobs/{created['job_id']}/result")
            assert status == 200

    def test_unknown_format_is_400(self, tmp_path):
        with _serve(tmp_path) as (url, _manager):
            _status, created = _post_job(url, _spec().to_dict())
            _wait_done(url, created["job_id"])
            status, _h, body = _request(
                f"{url}/v1/jobs/{created['job_id']}/result?format=pdf")
            assert status == 400
            assert b"unknown format" in body

    def test_healthz_and_stats(self, tmp_path):
        from repro import __version__

        with _serve(tmp_path) as (url, _manager):
            status, _h, body = _request(url + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["version"] == __version__
            assert set(health["jobs"]) == \
                {"queued", "running", "done", "failed"}
            _status, created = _post_job(url, _spec().to_dict())
            _wait_done(url, created["job_id"])
            stats = json.loads(_request(url + "/v1/store/stats")[2])
            assert stats["entries"] == 1
            metrics = json.loads(_request(url + "/v1/metrics")[2])
            assert metrics["service"]["counters"]["service.created"] == 1
            assert "store" in metrics and "engine" in metrics
