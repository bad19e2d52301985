"""The async job manager: digest-keyed dedup over a bounded worker pool.

One :class:`JobManager` owns every job the service has seen, keyed by
the content-addressed job id :mod:`repro.service.serialization`
computes.  Submission follows a strict store-first protocol:

1. **Known job id** — the submission *attaches*: an in-flight job is
   shared (concurrent identical POSTs cost one simulation), a finished
   job is returned as-is (``cached`` when it never executed, or once
   its results are all in the store — which is always, after success).
2. **Unknown id, warm store** — every task key is already indexed, so
   the job runs its aggregation inline on the submitting thread
   (pure index lookups through the campaign engine; nothing is
   dispatched, no queue slot is consumed) and returns ``done`` with
   ``cached: true`` immediately.  Warm traffic therefore never sees
   back-pressure.
3. **Unknown id, cold store** — the job is enqueued if the bounded
   queue has room, else :class:`QueueFullError` (HTTP 429) tells the
   client to retry later.  A worker thread runs the ordinary campaign
   engine (``resume=True``: a previous server's partial results are
   picked up from the store), streaming progress into the job's event
   log.

States are ``queued | running | done | failed``; failures carry the
engine's structured :class:`~repro.runner.pool.TaskError` payloads.
Graceful shutdown drains in-flight and queued jobs (every commit is
already in the store, so even an ungraceful death leaves re-submitted
jobs resumable — that is the store's checkpoint contract).

Thread model: the manager lock guards the job table and counters; each
worker thread keeps its own :class:`~repro.store.ResultStore` handle
on the shared root (see the store's concurrency notes); event logs do
their own locking.
"""

from __future__ import annotations

import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..campaign.definitions import result_document
from ..campaign.engine import run_campaign
from ..obs.export import render_json
from ..obs.registry import MetricsRegistry, merge_snapshots
from ..store import ResultStore
from .events import EventHub, JobEventLog
from .serialization import JobRequest

#: Default bound on queued + running jobs (HTTP 429 past it).
DEFAULT_QUEUE_LIMIT = 8
#: Default worker threads executing campaigns.
DEFAULT_WORKERS = 2

_STATES = ("queued", "running", "done", "failed")


class QueueFullError(RuntimeError):
    """The bounded job queue is full (HTTP 429; retry later)."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"job queue is full ({depth}/{limit} jobs queued or "
            f"running); retry after a job finishes")
        self.depth = depth
        self.limit = limit


class ServiceClosedError(RuntimeError):
    """The manager is shutting down and accepts no new work (503)."""


@dataclass
class Job:
    """One submission's lifecycle record."""

    job_id: str
    name: str
    params: Dict[str, Any]
    labels: List[str]
    #: Submission order (0-based) — deterministic, unlike wall clock.
    ordinal: int
    log: JobEventLog
    state: str = "queued"
    #: True when the job never executed a simulation (warm store or
    #: attached after completion).
    cached: bool = False
    hits: int = 0
    misses: int = 0
    retried: int = 0
    #: The deterministic ``campaign run --out`` document: the exact
    #: bytes the CLI writes, zlib-compressed (set once the job reaches
    #: ``done``/``failed``).  A finished job stays in the table for the
    #: life of the service, so it keeps this compact form, not the
    #: dict; :meth:`result_bytes` returns the bytes.
    result_zlib: Optional[bytes] = None
    #: Structured TaskError payloads (``failed`` jobs).
    errors: List[Dict[str, Any]] = field(default_factory=list)
    #: The engine registry snapshot for this job's run.
    engine_snapshot: Dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.labels)

    def result_bytes(self) -> Optional[bytes]:
        """The ``campaign run --out`` bytes, or None before a result."""
        if self.result_zlib is None:
            return None
        return zlib.decompress(self.result_zlib)

    def summary(self) -> Dict[str, Any]:
        """The JSON shape ``GET /v1/jobs`` lists."""
        return {
            "job_id": self.job_id,
            "campaign": self.name,
            "state": self.state,
            "cached": self.cached,
            "total": self.total,
            "hits": self.hits,
            "misses": self.misses,
            "errors": len(self.errors),
        }

    def detail(self) -> Dict[str, Any]:
        """The JSON shape ``GET /v1/jobs/{id}`` returns."""
        data = self.summary()
        data["params"] = dict(self.params)
        data["labels"] = list(self.labels)
        data["retried"] = self.retried
        data["events"] = len(self.log)
        if self.errors:
            data["error_details"] = list(self.errors)
        return data


@dataclass(frozen=True)
class SubmitOutcome:
    """What one POST produced: the job plus how it was satisfied."""

    job: Job
    #: ``created`` (new cold job queued), ``attached`` (dedup onto an
    #: in-flight or finished job), or ``cached`` (answered warm from
    #: the store without executing).
    outcome: str

    @property
    def cached(self) -> bool:
        return self.outcome == "cached" or self.job.cached or (
            self.job.state == "done")

    @property
    def deduped(self) -> bool:
        return self.outcome == "attached"


class JobManager:
    """Digest-keyed job table + bounded thread pool over one store."""

    def __init__(self,
                 store_root: Optional[str] = None,
                 workers: int = DEFAULT_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 engine_jobs: int = 1,
                 retries: int = 2,
                 task_timeout: Optional[float] = None,
                 snapshot_every: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.store_root = store_root
        self.engine_jobs = engine_jobs
        self.retries = retries
        self.task_timeout = task_timeout
        #: Emit a ``snapshot`` event (the engine's MetricsRegistry
        #: snapshot) every N committed tasks; 0 = only at the end.
        self.snapshot_every = snapshot_every
        self.queue_limit = queue_limit
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.hub = EventHub()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._active = 0  # queued + running jobs
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers),
            thread_name_prefix="repro-service")
        self._local = threading.local()
        self._store_registries: List[MetricsRegistry] = []

    # -- stores --------------------------------------------------------
    def _store(self) -> ResultStore:
        """This thread's store handle (one sqlite connection each)."""
        store = getattr(self._local, "store", None)
        if store is None:
            registry = MetricsRegistry()
            store = ResultStore(self.store_root, metrics=registry)
            self._local.store = store
            with self._lock:
                self._store_registries.append(registry)
        return store

    def store_stats(self) -> Dict[str, Any]:
        """The store footprint (``GET /v1/store/stats``)."""
        return self._store().stats()

    # -- metrics -------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.metrics.counter(name).inc(n)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Service counters plus merged per-thread store counters."""
        with self._lock:
            service = self.metrics.snapshot()
            store = merge_snapshots(
                r.snapshot() for r in self._store_registries)
            engine = merge_snapshots(
                job.engine_snapshot for job in self._jobs.values()
                if job.engine_snapshot)
        return {"service": service, "store": store, "engine": engine}

    # -- job table -----------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """Return the job for ``job_id``, or None if unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for ``/healthz``)."""
        counts = {state: 0 for state in _STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    # -- submission ----------------------------------------------------
    def submit(self, request: JobRequest) -> SubmitOutcome:
        """Admit one submission; never executes a duplicate.

        Runs on the caller's thread (the app's request executor).
        Raises :class:`QueueFullError` on back-pressure and
        :class:`ServiceClosedError` during shutdown.
        """
        self._count("service.submitted")
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is shutting down; no new jobs accepted")
            job = self._jobs.get(request.job_id)
            if job is not None:
                self.metrics.counter("service.attached").inc()
                return SubmitOutcome(job=job, outcome="attached")

        # Warm-store fast path: every key indexed -> aggregate inline,
        # no queue slot, no dispatch.  (has() is an index probe; if a
        # record turns out corrupt the engine re-runs it — the inline
        # run then degrades to a cold run on this thread, which is
        # correctness-preserving if slower.)
        store = self._store()
        warm = all(store.has(key) for key in request.keys)

        enqueue = False
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is shutting down; no new jobs accepted")
            job = self._jobs.get(request.job_id)
            if job is not None:
                self.metrics.counter("service.attached").inc()
                return SubmitOutcome(job=job, outcome="attached")
            if not warm and self._active >= self.queue_limit:
                self.metrics.counter("service.rejected").inc()
                raise QueueFullError(self._active, self.queue_limit)
            job = Job(
                job_id=request.job_id,
                name=request.definition.name,
                params=dict(request.definition.params),
                labels=[label for label, _spec
                        in request.definition.labeled_specs],
                ordinal=len(self._order),
                log=self.hub.create(request.job_id),
            )
            self._jobs[request.job_id] = job
            self._order.append(request.job_id)
            if warm:
                job.cached = True
                self.metrics.counter("service.cached").inc()
            else:
                self._active += 1
                enqueue = True
                self.metrics.counter("service.created").inc()
                self.metrics.gauge("service.queue_depth").set(self._active)
        job.log.append("state", {"job_id": job.job_id,
                                 "state": "queued", "cached": job.cached})
        if warm:
            # Inline warm run on the submitting thread: index lookups
            # plus aggregation, completed before the POST returns.
            self._run_job(job, request)
            return SubmitOutcome(job=job, outcome="cached")
        self._executor.submit(self._run_job, job, request)
        return SubmitOutcome(job=job, outcome="created")

    # -- execution -----------------------------------------------------
    def _run_job(self, job: Job, request: JobRequest) -> None:
        with self._lock:
            job.state = "running"
        registry = MetricsRegistry()
        committed = [0]

        def progress(event: Dict[str, Any]) -> None:
            kind = event.pop("kind")
            job.log.append(kind, event)
            if kind == "task":
                committed[0] += 1
                if self.snapshot_every and \
                        committed[0] % self.snapshot_every == 0:
                    job.log.append("snapshot", registry.snapshot())

        job.log.append("state", {"job_id": job.job_id, "state": "running"})
        try:
            result = run_campaign(
                request.definition.labeled_specs,
                name=request.definition.name,
                store=self._store(),
                jobs=self.engine_jobs,
                retries=self.retries,
                task_timeout=self.task_timeout,
                resume=True,
                metrics=registry,
                progress=progress,
            )
            packed = zlib.compress(render_json(
                result_document(request.definition, result)).encode("utf-8"))
        except Exception as exc:  # engine-level crash, not a TaskError
            with self._lock:
                job.state = "failed"
                job.errors = [{"type": type(exc).__name__,
                               "message": str(exc), "timed_out": False}]
                job.engine_snapshot = registry.snapshot()
                self.metrics.counter("service.failed").inc()
                self._retire_locked(job)
            job.log.append("failed", {"state": "failed",
                                      "errors": job.errors})
            job.log.close()
            return
        errors = [{"index": e.index, "type": e.error_type,
                   "message": e.message, "timed_out": e.timed_out}
                  for e in result.errors]
        job.log.append("snapshot", registry.snapshot())
        with self._lock:
            job.hits = result.hits
            job.misses = result.misses
            job.retried = result.retried
            job.result_zlib = packed
            job.errors = errors
            job.engine_snapshot = registry.snapshot()
            job.state = "failed" if errors else "done"
            self.metrics.counter("service.completed").inc()
            if errors:
                self.metrics.counter("service.failed").inc()
            self.metrics.counter("service.executed_tasks").inc(
                result.misses)
            self.metrics.counter("service.cached_tasks").inc(result.hits)
            self._retire_locked(job)
        if errors:
            job.log.append("failed", {"state": "failed", "errors": errors})
        else:
            job.log.append("done", {
                "state": "done", "hits": result.hits,
                "misses": result.misses, "total": job.total,
                "cached": job.cached})
        job.log.close()

    def _retire_locked(self, job: Job) -> None:
        """Release the job's queue slot (caller holds the lock)."""
        if not job.cached and self._active > 0:
            self._active -= 1
            self.metrics.gauge("service.queue_depth").set(self._active)

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting jobs; drain (or cancel queued) work.

        With ``drain`` every queued and running job finishes before the
        call returns — in-flight results keep committing to the store.
        Without it, queued jobs are cancelled (they were never started;
        their event logs close on a terminal ``failed`` event) and only
        in-flight jobs are awaited.  Either way the store is left
        consistent: a later submission of the same work resumes from
        whatever was committed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=not drain)
        with self._lock:
            abandoned = [job for job in self._jobs.values()
                         if job.state == "queued"]
            for job in abandoned:
                job.state = "failed"
                job.errors = [{"type": "ServiceShutdown",
                               "message": "service shut down before the "
                                          "job started; resubmit to "
                                          "resume from the store",
                               "timed_out": False}]
                self._retire_locked(job)
        for job in abandoned:
            job.log.append("failed", {"state": "failed",
                                      "errors": job.errors})
            job.log.close()
        # Close every thread-local store handle we can reach (each
        # belongs to a pool thread that no longer runs; sqlite handles
        # are freed with the threads, this is just prompt hygiene).
        store = getattr(self._local, "store", None)
        if store is not None:
            store.close()
            self._local.store = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed


__all__ = [
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WORKERS",
    "Job",
    "JobManager",
    "QueueFullError",
    "ServiceClosedError",
    "SubmitOutcome",
]
