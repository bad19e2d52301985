"""The per-layer ledger: span trees in, per-layer metrics out.

Spans come from ``traced_serve.py`` as ``[id, parent, name, start,
end, job, extra]`` rows.  A span's *self time* is its duration minus
the part of its interval that its child spans cover (children may run
on another thread, so their union is taken, not their sum).  Each
layer metric sums the self time of its spans over the measured jobs
and divides by the number of jobs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from traced_serve import END, EXTRA, JOB, NAME, PARENT, SID, START

#: Per-job self-time metrics and the span names each one sums.
TIME_METRICS = {
    "sim.build_ms": ("sim.build",),
    "sim.run_ms": ("sim.run_rounds",),
    "vec.compile_ms": ("vec.compile",),
    "vec.inject_ms": ("vec.inject",),
    "vec.kernel_ms": ("vec.run_batch",),
    "vec.reduce_ms": ("vec.execute_batch", "vec.execute"),
    "spec.digest_ms": ("spec.digest",),
    "spec.codec_ms": ("spec.codec",),
    "store.has_ms": ("store.has",),
    "store.get_many_ms": ("store.get_many",),
    "store.put_ms": ("store.put",),
    "store.put_many_ms": ("store.put_many",),
    "campaign.self_ms": ("campaign.run",),
    "campaign.checkpoint_ms": ("campaign.save",),
    "runner.exec_ms": ("runner.exec",),
    "results.document_ms": ("results.document",),
    "results.render_ms": ("results.render",),
    "service.request_ms": ("service.request",),
    "service.parse_ms": ("service.parse",),
    "service.submit_ms": ("service.submit",),
    "service.job_ms": ("service.job",),
    "service.events_ms": ("service.event",),
}

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append(span)
    out = {}
    for span in spans:
        lo, hi = span[START], span[END]
        covered = union_length(
            (max(c[START], lo), min(c[END], hi))
            for c in children.get(span[SID], ()) if c[END] > lo
            and c[START] < hi)
        out[span[SID]] = (hi - lo) - covered
    return out


def resolve_jobs(spans: Sequence[list]) -> Dict[int, Optional[str]]:
    """Span id -> job id, inherited from the nearest ancestor that has
    one (a request learns its job only once its body is parsed)."""
    by_id = {span[SID]: span for span in spans}
    resolved: Dict[int, Optional[str]] = {}
    for span in spans:
        chain = []
        node = span
        while node is not None and node[SID] not in resolved \
                and node[JOB] is None:
            chain.append(node[SID])
            node = by_id.get(node[PARENT])
        if node is None:
            job = None
        elif node[SID] in resolved:
            job = resolved[node[SID]]
        else:
            job = node[JOB]
            resolved[node[SID]] = job
        for sid in chain:
            resolved[sid] = job
    return resolved


def _covered_share(sent: float, end: float,
                   intervals: List[Interval]) -> float:
    clipped = [(max(lo, sent), min(hi, end)) for lo, hi in intervals
               if hi > sent and lo < end]
    return union_length(clipped) / (end - sent)


def job_coverage(spans: Sequence[list], jobs: Dict[int, Optional[str]],
                 windows: Sequence[Tuple[str, float, float]]
                 ) -> List[float]:
    """Per job: the share of its client wall time that server work
    covers.  Work is every request span, the queue wait and the job's
    run on its worker; an SSE stream counts only once the job's run
    has ended, because until then it is waiting for that run."""
    by_job: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        job = jobs.get(span[SID])
        if job is not None and (span[PARENT] == 0
                                or span[NAME] == "service.submit"):
            by_job[job].append(span)
    shares = []
    for job, sent, end in windows:
        mine = [s for s in by_job.get(job, ()) if sent <= s[START] <= end]
        runs = [s for s in mine if s[NAME] == "service.job"]
        run_end = max((s[END] for s in runs), default=float("-inf"))
        intervals: List[Interval] = []
        submit_end = None
        for span in mine:
            if span[NAME] == "service.stream":
                intervals.append((max(span[START], run_end), span[END]))
            elif span[NAME] == "service.submit":
                if span[EXTRA] == "created":
                    submit_end = span[END]
            else:
                intervals.append((span[START], span[END]))
        if submit_end is not None and runs:
            intervals.append((submit_end, min(s[START] for s in runs)))
        shares.append(_covered_share(sent, end, intervals))
    return shares


def layer_metrics(spans: Sequence[list],
                  windows: Sequence[Tuple[str, float, float]]
                  ) -> Dict[str, float]:
    """Every per-layer metric over the measured jobs.

    ``windows`` holds one ``(job id, sent, end)`` triple per measured
    job, on the same monotonic clock as the spans.
    """
    jobs = resolve_jobs(spans)
    selftime = self_times(spans)
    measured = {job for job, _sent, _end in windows}
    start = min(sent for _job, sent, _end in windows)
    mine = [s for s in spans
            if s[START] >= start and jobs.get(s[SID]) in measured]
    count = len(windows)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in mine:
        by_name[span[NAME]].append(span)

    def total_ms(names) -> float:
        return 1000.0 * sum(selftime[s[SID]] for name in names
                            for s in by_name.get(name, ()))

    def extra_sum(name: str, pick=lambda x: x) -> float:
        return float(sum(pick(s[EXTRA]) for s in by_name.get(name, ())
                         if isinstance(s[EXTRA], (int, list))))

    out = {metric: total_ms(names) / count
           for metric, names in TIME_METRICS.items()}
    batches = len(by_name.get("vec.execute_batch", ()))
    lookups = (len(by_name.get("store.has", ()))
               + extra_sum("store.get_many", lambda x: x[0]))
    hits = (extra_sum("store.has")
            + extra_sum("store.get_many", lambda x: x[1]))
    out.update({
        "sim.node_rounds": extra_sum("sim.run_rounds") / count,
        "vec.batches": float(batches),
        "vec.replicates_per_batch":
            extra_sum("vec.execute_batch") / batches if batches else 0.0,
        "spec.digests": len(by_name.get("spec.digest", ())) / count,
        "store.lookups": lookups,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.puts": (len(by_name.get("store.put", ()))
                       + extra_sum("store.put_many")) / count,
        "campaign.checkpoints":
            len(by_name.get("campaign.save", ())) / count,
        "runner.task_errors": float(sum(
            1 for s in by_name.get("runner.exec", ())
            if s[EXTRA] == "error")),
        "results.bytes": extra_sum("results.render") / count,
        "service.events": len(by_name.get("service.event", ())) / count,
    })
    # Queue wait: from the submit that created a job to the start of
    # its run on a worker thread.
    created = {jobs[s[SID]]: s[END] for s in by_name.get("service.submit", ())
               if s[EXTRA] == "created"}
    waits = [s[START] - created[jobs[s[SID]]]
             for s in by_name.get("service.job", ())
             if s[PARENT] == 0 and jobs[s[SID]] in created]
    out["service.queue_wait_ms"] = (1000.0 * statistics.fmean(waits)
                                    if waits else 0.0)
    shares = job_coverage(spans, jobs, windows)
    out["trace.coverage_share"] = statistics.median(shares)
    out["trace.coverage_jobs"] = float(len(shares))
    out["trace.jobs"] = float(count)
    return out
