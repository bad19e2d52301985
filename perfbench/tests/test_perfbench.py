"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The tiny runs launch real servers, so the file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
from loadgen import Record  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout's benchmark work area."""
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _span(sid, parent, name, start, end, job=None, extra=None):
    return [sid, parent, name, start, end, job, extra]


def test_union_length_merges_overlaps():
    assert ledger.union_length([]) == 0.0
    assert ledger.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert ledger.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, "service.request", 0.0, 10.0, "j"),
        # Two overlapping children (one ran on another thread):
        # together they cover 2..7, so the parent keeps 5.
        _span(2, 1, "service.parse", 2.0, 5.0),
        _span(3, 1, "service.submit", 4.0, 7.0),
        # A grandchild counts against its parent only.
        _span(4, 3, "store.has", 4.5, 5.5),
        # A child overhanging its parent is clipped to the parent.
        _span(5, 1, "service.event", 9.0, 12.0),
    ]
    own = ledger.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_jobs_are_inherited_from_the_nearest_ancestor():
    spans = [
        _span(1, 0, "service.request", 0.0, 4.0, "a"),
        _span(2, 1, "service.parse", 0.5, 1.0),
        _span(3, 2, "spec.codec", 0.6, 0.7),
        _span(4, 0, "service.request", 0.0, 1.0),
    ]
    jobs = ledger.resolve_jobs(spans)
    assert jobs == {1: "a", 2: "a", 3: "a", 4: None}


def test_layer_metrics_on_a_synthetic_cold_job():
    spans = [
        _span(1, 0, "service.request", 0.0, 0.010, "j"),
        _span(2, 1, "service.submit", 0.002, 0.008, "j", "created"),
        _span(3, 0, "service.stream", 0.012, 0.200, "j"),
        _span(4, 0, "service.job", 0.020, 0.180, "j"),
        _span(5, 4, "campaign.run", 0.021, 0.170),
        _span(6, 5, "runner.exec", 0.022, 0.150),
        _span(7, 6, "sim.run_rounds", 0.030, 0.140, None, 800),
        _span(8, 0, "service.request", 0.203, 0.206, "j"),
    ]
    metrics = ledger.layer_metrics(spans, [("j", 0.0, 0.210)])
    assert metrics["sim.run_ms"] == pytest.approx(110.0)
    assert metrics["runner.exec_ms"] == pytest.approx(18.0)
    assert metrics["campaign.self_ms"] == pytest.approx(21.0)
    assert metrics["service.request_ms"] == pytest.approx(4.0 + 3.0)
    assert metrics["service.queue_wait_ms"] == pytest.approx(12.0)
    assert metrics["sim.node_rounds"] == 800
    # Covered: request 0-10, wait 8-20, run 20-180, stream after the
    # run 180-200, result 203-206 ms: 203 of 210 ms.
    assert metrics["trace.coverage_share"] == pytest.approx(203 / 210)


def _document(tasks: int) -> bytes:
    return json.dumps({
        "schema": checks.RESULT_SCHEMA,
        "tasks": [{"label": str(i), "result": {"enc": "json",
                                               "payload": "1"}}
                  for i in range(tasks)],
    }).encode()


def _record(kind: str, result: bytes, expected=None) -> Record:
    job = Job({"specs": []}, kind, 2, "test", expected=expected)
    return Record(job=job, due=0.0, post_status=201 if kind == "cold"
                  else 200, post={"job_id": "x", "cached": kind == "warm"},
                  events=b"id: 0\nevent: state\ndata: {}\n\n"
                         b"id: 1\nevent: done\ndata: {}\n\n",
                  result_status=200, result=result)


def test_checks_pass_a_correct_job():
    assert checks.check_record(_record("cold", _document(2))) == ""
    good = _document(2)
    assert checks.check_record(_record("warm", good, good)) == ""


def test_a_tampered_recorded_document_fails_its_check():
    good = _document(2)
    tampered = good.replace(b'"payload": "1"', b'"payload": "2"', 1)
    reason = checks.check_record(_record("warm", tampered, good))
    assert "differ" in reason


@pytest.mark.parametrize("body, why", [
    (_document(1), "task entries"),
    (_document(2).replace(b'"result"', b'"error"', 1), "no result"),
    (_document(2).replace(b"/2", b"/1"), "schema"),
])
def test_broken_documents_fail_their_check(body, why):
    assert why in checks.check_record(_record("cold", body))


def test_cached_cold_job_and_unfinished_stream_fail():
    record = _record("cold", _document(2))
    record.post["cached"] = True
    assert "cached" in checks.check_record(record)
    record = _record("cold", _document(2))
    record.events = b"id: 0\nevent: failed\ndata: {}\n\n"
    assert "failed" in checks.check_record(record)


def test_same_seed_same_inputs():
    for make in WORKLOADS.values():
        first, second = make(3, 2.0), make(3, 2.0)
        assert [j.payload for j in first.jobs] == \
            [j.payload for j in second.jobs]
        assert [j.payload for j in first.jobs] != \
            [j.payload for j in make(4, 2.0).jobs]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_and_no_failure(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_share 0/" in out.stdout


def test_a_tampered_warm_answer_is_counted_as_failed(monkeypatch, workdir):
    fill = run.fill_store

    def fill_then_tamper(plan, store_dir):
        fill(plan, store_dir)
        job = plan.jobs[0]
        job.expected = job.expected[:-2] + b"?\n"

    monkeypatch.setattr(run, "fill_store", fill_then_tamper)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run.run("warm-replay", 6, 1.0, False, workdir)
    assert result["failed"] == 1
    assert result["correct"] is False


def test_without_the_program_it_exits_non_zero(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(BENCH, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-event",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
