"""Diagnosis-as-a-service: the HTTP job server over the campaign engine.

The add-on protocol's simulation stack, behind a small HTTP API:
clients POST a RunSpec or campaign description to ``/v1/jobs`` and get
back a **content-addressed job id** (every task pinned by
:func:`~repro.spec.RunSpec.full_digest`).  That identity does the
heavy lifting:

* concurrent identical submissions attach to one in-flight run — N
  clients cost one simulation;
* submissions whose results are already in the
  :class:`~repro.store.ResultStore` return ``cached: true`` without
  executing anything (the store-first contract, now over the wire);
* progress streams as Server-Sent Events with deterministic,
  replayable event logs — late subscribers see byte-identical frames;
* results are the same ``repro-campaign-result/2`` documents the CLI
  writes (``?format=json`` is byte-identical to ``campaign run
  --out``), plus every ``results render`` table format.

Layout: :mod:`~repro.service.serialization` (request → definition +
job id), :mod:`~repro.service.jobs` (bounded job manager),
:mod:`~repro.service.events` (event logs / SSE), :mod:`~repro.service.
app` (ASGI routes), :mod:`~repro.service.http` (stdlib asyncio host),
:mod:`~repro.service.asgi` (optional uvicorn host behind the
``service`` extra).  Everything except that last hop is stdlib-only.

Entry point: ``repro-diag serve``.
"""

from .app import create_app
from .asgi import ServiceUnavailableError, have_uvicorn, require_uvicorn
from .events import JobEventLog, sse_frame
from .http import ServiceThread, start_server
from .jobs import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    Job,
    JobManager,
    QueueFullError,
    ServiceClosedError,
)
from .serialization import BadRequestError, JobRequest, parse_job_request

__all__ = [
    "BadRequestError",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_WORKERS",
    "Job",
    "JobEventLog",
    "JobManager",
    "JobRequest",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceThread",
    "ServiceUnavailableError",
    "create_app",
    "have_uvicorn",
    "parse_job_request",
    "require_uvicorn",
    "sse_frame",
    "start_server",
]
