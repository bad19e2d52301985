"""Benchmark ``repro-diag serve`` under three seeded traffic mixes.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload cold-event --seed 1 --seconds 45 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced run;
``--trace 1`` runs the same job list twice, plain and under the span
launcher, and prints the per-layer ledger plus the tracing overhead.
Report lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# Bytecode of everything this run imports or launches goes under the
# work directory, so the checkout's own files stay untouched.
sys.pycache_prefix = os.path.join(WORK, "pycache")

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from checks import check_record  # noqa: E402
from ledger import layer_metrics  # noqa: E402
from loadgen import (BenchError, Record, Server, closed_loop,  # noqa: E402
                     get_json, open_loop, run_job)
from workloads import WORKLOADS, Plan  # noqa: E402

#: Server launches per run; set-up time is their median.
LAUNCHES = 9
#: Cold jobs recomputed in-process after each measured window.
RECOMPUTED = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Units of the per-layer metrics (``--trace 1``).
LAYER_UNITS = {
    "sim.build_ms": "ms", "sim.run_ms": "ms", "sim.node_rounds": "count",
    "vec.compile_ms": "ms", "vec.inject_ms": "ms", "vec.kernel_ms": "ms",
    "vec.reduce_ms": "ms", "vec.replicates_per_batch": "count",
    "vec.batches": "count",
    "spec.digest_ms": "ms", "spec.digests": "count", "spec.codec_ms": "ms",
    "store.has_ms": "ms", "store.get_many_ms": "ms",
    "store.hit_ratio": "ratio", "store.lookups": "count",
    "store.put_ms": "ms", "store.put_many_ms": "ms", "store.puts": "count",
    "campaign.self_ms": "ms", "campaign.checkpoint_ms": "ms",
    "campaign.checkpoints": "count",
    "runner.exec_ms": "ms", "runner.task_errors": "count",
    "results.document_ms": "ms", "results.render_ms": "ms",
    "results.bytes": "B",
    "service.request_ms": "ms", "service.parse_ms": "ms",
    "service.submit_ms": "ms", "service.job_ms": "ms",
    "service.queue_wait_ms": "ms", "service.events": "count",
    "service.events_ms": "ms",
    "service.cached_share": "ratio", "service.attached_share": "ratio",
    "service.submissions": "count",
    "loadgen.lateness_ms_p90": "ms",
    "trace.jobs": "count", "trace.coverage_share": "ratio",
    "trace.coverage_jobs": "count",
    "trace.overhead_setup_s": "s", "trace.overhead_tasks_per_s": "1/s",
    "trace.overhead_job_ms_p50": "ms", "trace.overhead_job_ms_p90": "ms",
}


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """(q, value): the nearest-rank 90th percentile, or with fewer than
    100 samples the highest one that still has ten samples above it."""
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, min((9 * count + 9) // 10, count - 10))
    return rank / count, ordered[rank - 1]


def _counter(snapshot: dict, name: str) -> int:
    return snapshot["service"]["counters"].get(name, 0)


class Pass:
    """One set-up series plus one measured window on a fresh server."""

    def __init__(self, plan: Plan, run_dir: str, tag: str,
                 traced: bool, store: Optional[str]) -> None:
        self.plan = plan
        self.run_dir = run_dir
        self.tag = tag
        self.traced = traced
        self.shared_store = store
        self.spans_path: Optional[str] = None

    def _launch(self, index: int) -> Tuple[float, Server]:
        store = self.shared_store or os.path.join(
            self.run_dir, f"store-{self.tag}-{index}")
        spans = (os.path.join(self.run_dir, f"spans-{self.tag}.json")
                 if self.traced else None)
        log = os.path.join(self.run_dir, f"serve-{self.tag}-{index}.log")
        started = perf_counter()
        server = Server(ROOT, store, log, spans)
        try:
            for job in self.plan.warmup:
                reason = check_record(run_job(server.port, job,
                                              perf_counter()))
                if reason:
                    raise BenchError(f"warm-up job failed: {reason}")
        except BaseException:
            server.stop()
            raise
        self.spans_path = spans
        return perf_counter() - started, server

    def run(self, seconds: float) -> None:
        setups = []
        for index in range(LAUNCHES):
            elapsed, server = self._launch(index)
            setups.append(elapsed)
            if index < LAUNCHES - 1:
                server.stop()
        self.setups = setups
        self.setup_s = statistics.median(setups)
        try:
            before = get_json(server.port, "/v1/metrics")
            if self.plan.closed:
                self.start, self.records = closed_loop(server.port,
                                                       self.plan, seconds)
            else:
                self.start, self.records = open_loop(server.port, self.plan)
            after = get_json(server.port, "/v1/metrics")
            self.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        self.counters = {name: _counter(after, name) - _counter(before, name)
                         for name in ("service.submitted", "service.cached",
                                      "service.attached")}
        self.reasons = [check_record(record) for record in self.records]

    def latencies_ms(self) -> List[float]:
        return [1000.0 * record.latency for record in self.records]

    def end_to_end(self) -> Dict[str, float]:
        end = max(record.end for record in self.records)
        delivered = sum(record.job.tasks for record, reason
                        in zip(self.records, self.reasons) if not reason)
        latencies = self.latencies_ms()
        return {
            "setup_s": self.setup_s,
            "tasks_per_s": delivered / (end - self.start),
            "job_ms_p50": statistics.median(latencies),
            "job_ms_p90": tail_percentile(latencies)[1],
            "peak_rss_mb": self.peak_rss_mb,
        }

    def lateness_ms_p90(self) -> float:
        late = [1000.0 * (r.sent - r.due) for r in self.records]
        return tail_percentile(late)[1]

    def share(self, counter: str) -> float:
        """A ``/v1/metrics`` counter over the window per submission."""
        submitted = self.counters["service.submitted"]
        return self.counters[counter] / submitted if submitted else 0.0

    @property
    def failed(self) -> int:
        return sum(1 for reason in self.reasons if reason)


def count_tasks(plan: Plan) -> None:
    """Set how many specs each named-campaign submission expands to,
    as the service's own request parser expands it."""
    from repro.service.serialization import parse_job_request

    counts: Dict[bytes, int] = {}
    for job in plan.warmup + plan.jobs:
        if job.tasks is None:
            if job.payload not in counts:
                counts[job.payload] = len(parse_job_request(job.body).keys)
            job.tasks = counts[job.payload]


def fill_store(plan: Plan, store_dir: str) -> None:
    """Execute the warm pool into a store and record expected bytes.

    Untimed.  Every warm job's answer is produced here in-process from
    the filled store, through the same document and render functions
    the service uses, and kept as the bytes the server must return.
    """
    from repro.campaign.engine import run_campaign
    from repro.campaign.definitions import result_document
    from repro.obs.export import render_json
    from repro.results.render import render_tables
    from repro.results.source import parse_document, tables_for_document
    from repro.service.serialization import parse_job_request
    from repro.store import ResultStore

    formats = {"md": "markdown"}
    with ResultStore(store_dir) as store:
        for body in plan.fill:
            request = parse_job_request(body)
            run_campaign(request.definition.labeled_specs,
                         name=request.definition.name, store=store)
        answers: Dict[Tuple[bytes, str], bytes] = {}
        for job in plan.warmup + plan.jobs:
            key = (job.payload, job.fmt)
            if key not in answers:
                request = parse_job_request(job.body)
                result = run_campaign(request.definition.labeled_specs,
                                      name=request.definition.name,
                                      store=store, resume=True)
                if result.misses:
                    raise BenchError("a warm job is not in the filled store")
                document = result_document(request.definition, result)
                if job.fmt == "json":
                    text = render_json(document)
                else:
                    tables = tables_for_document(parse_document(document))
                    text = render_tables(
                        tables, formats.get(job.fmt, job.fmt)) + "\n"
                answers[key] = text.encode("utf-8")
            job.expected = answers[key]


def recompute_sample(records: List[Record], reasons: List[str],
                     seed: int) -> int:
    """Recompute a seeded sample of passing cold jobs in-process (no
    store) and fail any whose server bytes differ.  Returns the number
    checked."""
    from repro.campaign.definitions import result_document
    from repro.campaign.engine import run_campaign
    from repro.obs.export import render_json
    from repro.service.serialization import parse_job_request

    passing = [i for i, reason in enumerate(reasons)
               if not reason and records[i].job.kind == "cold"]
    sample = random.Random(f"recompute:{seed}").sample(
        passing, min(RECOMPUTED, len(passing)))
    for index in sample:
        record = records[index]
        request = parse_job_request(record.job.body)
        result = run_campaign(request.definition.labeled_specs,
                              name=request.definition.name)
        text = render_json(result_document(request.definition, result))
        if request.job_id != record.job_id:
            reasons[index] = "job id differs from the in-process digest"
        elif text.encode("utf-8") != record.result:
            reasons[index] = "result bytes differ from an in-process rerun"
    return len(sample)


def _report(name: str, value: float, unit: str) -> None:
    print(f"  {name:<28} {value:>14.4f} {unit}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: str) -> dict:
    plan = WORKLOADS[workload](seed, seconds)
    count_tasks(plan)
    store = None
    if not plan.closed:
        store = os.path.join(run_dir, "store-filled")
        fill_store(plan, store)
    passes = [Pass(plan, run_dir, "plain", False, store)]
    if trace:
        passes.append(Pass(plan, run_dir, "traced", True, store))
    for one in passes:
        one.run(seconds)
    checked = sum(recompute_sample(one.records, one.reasons, seed)
                  for one in passes if plan.closed)

    plain = passes[0]
    e2e = plain.end_to_end()
    attempted = sum(len(one.records) for one in passes)
    failed = sum(one.failed for one in passes)
    print(f"workload {workload} seed {seed}: {len(plain.records)} jobs, "
          f"{'closed' if plan.closed else 'open'} loop, "
          f"{plan.clients} client(s)")
    for name, unit in END_TO_END_UNITS.items():
        _report(name, e2e[name], unit)
    tail_q = tail_percentile(plain.latencies_ms())[0]
    print(f"  job_ms_p90 is the p{100 * tail_q:.3g} of "
          f"{len(plain.records)} jobs; setup_s is the median of "
          + ", ".join(f"{s:.3f}" for s in plain.setups) + " s")
    print(f"  fail_share {failed}/{attempted} = {failed / attempted:.4f}"
          f" ({checked} cold jobs recomputed in-process)")
    for one in passes:
        for record, reason in zip(one.records, one.reasons):
            if reason:
                print(f"  FAILED {one.tag} {record.job.label}: {reason}")
    if not plan.closed:
        print(f"  lateness p90 {plain.lateness_ms_p90():.3f} ms; of "
              f"{plain.counters['service.submitted']} submissions "
              f"{plain.share('service.cached'):.3f} took the store path, "
              f"{plain.share('service.attached'):.3f} the job table")

    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        traced = passes[1]
        with open(traced.spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        windows = [(r.job_id, r.sent, r.end) for r in traced.records]
        layers = layer_metrics(spans, windows)
        layers["service.submissions"] = float(
            traced.counters["service.submitted"])
        for name in ("cached", "attached"):
            layers[f"service.{name}_share"] = traced.share(f"service.{name}")
        layers["loadgen.lateness_ms_p90"] = plain.lateness_ms_p90()
        e2e_traced = traced.end_to_end()
        for name in ("setup_s", "tasks_per_s", "job_ms_p50", "job_ms_p90"):
            layers[f"trace.overhead_{name}"] = e2e_traced[name] - e2e[name]
        print(f"traced ledger ({len(spans)} spans; per-job values over "
              f"{len(traced.records)} jobs):")
        for name, unit in LAYER_UNITS.items():
            _report(name, layers[name], unit)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found beside the benchmark; run it "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # SIGTERM unwinds like an error, so every server gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
