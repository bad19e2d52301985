"""The ASGI application: routes, content negotiation, SSE streaming.

Framework-free by design — the app is a plain ASGI 3 callable built on
the stdlib, so the service runs anywhere the package imports.  The
same callable also runs unmodified under uvicorn when the ``service``
extra is installed (:mod:`repro.service.asgi`).

Routes::

    GET  /healthz                 liveness + job-state counts
    GET  /v1/store/stats          ResultStore footprint
    GET  /v1/metrics              service / store / engine snapshots
    POST /v1/jobs                 submit (RunSpec or campaign JSON)
    GET  /v1/jobs                 list jobs in submission order
    GET  /v1/jobs/{id}            job detail
    GET  /v1/jobs/{id}/events     SSE progress stream (replay + tail)
    GET  /v1/jobs/{id}/result     the campaign result document;
                                  ``?format=json|ascii|md|tex|csv|html``

``/result?format=json`` serves **byte-identical** output to
``repro-diag campaign run --out`` (the job keeps, compressed, the
bytes :func:`~repro.obs.export.render_json` made of the same document);
the table formats parse those bytes and reuse the ``results render``
pipeline, so the service can never disagree with the CLI about a
number.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Optional
from urllib.parse import parse_qs

from .. import __version__
from ..obs.export import render_json
from ..results.render import render_tables
from ..results.source import parse_document, tables_for_document
from .events import JobEventLog
from .jobs import Job, JobManager, QueueFullError, ServiceClosedError
from .serialization import BadRequestError, parse_job_request

#: ``?format=`` values → renderer formats (the CLI's alias table).
_FORMAT_ALIASES = {"md": "markdown", "tex": "latex"}
_RESULT_FORMATS = ("json", "ascii", "markdown", "latex", "csv", "html")
_CONTENT_TYPES = {
    "json": "application/json",
    "ascii": "text/plain; charset=utf-8",
    "markdown": "text/markdown; charset=utf-8",
    "latex": "text/plain; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
    "html": "text/html; charset=utf-8",
}
#: Request bodies past this are rejected outright (413).
MAX_BODY_BYTES = 8 * 1024 * 1024


def create_app(manager: JobManager) -> Callable:
    """Build the ASGI callable serving ``manager``."""
    return _ServiceApp(manager)


class _ServiceApp:
    """ASGI 3 application object (``await app(scope, receive, send)``)."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise RuntimeError(f"unsupported scope {scope['type']!r}")
        try:
            await self._dispatch(scope, receive, send)
        except ClientDisconnect:
            pass

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, self.manager.shutdown)
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- routing -------------------------------------------------------
    async def _dispatch(self, scope, receive, send) -> None:
        method = scope["method"]
        path = scope["path"].rstrip("/") or "/"
        query = {k: v[-1] for k, v in
                 parse_qs(scope.get("query_string", b"")
                          .decode("latin-1")).items()}
        if path == "/healthz" and method == "GET":
            await self._healthz(send)
        elif path == "/v1/store/stats" and method == "GET":
            await self._store_stats(send)
        elif path == "/v1/metrics" and method == "GET":
            await _send_json(send, 200, self.manager.metrics_snapshot())
        elif path == "/v1/jobs" and method == "POST":
            await self._submit(receive, send)
        elif path == "/v1/jobs" and method == "GET":
            await _send_json(send, 200, {
                "jobs": [job.summary() for job in self.manager.jobs()]})
        elif path.startswith("/v1/jobs/"):
            await self._job_routes(scope, receive, send, method,
                                   path, query)
        else:
            await _send_error(send, 404, f"no such route: {path}")

    async def _job_routes(self, scope, receive, send, method: str,
                          path: str, query: Dict[str, str]) -> None:
        parts = path.split("/")[3:]  # after /v1/jobs/
        job_id = parts[0]
        tail = parts[1] if len(parts) > 1 else ""
        if len(parts) > 2 or (tail and tail not in ("events", "result")):
            await _send_error(send, 404, f"no such route: {path}")
            return
        if method != "GET":
            await _send_error(send, 405, f"{method} not allowed here")
            return
        job = self.manager.get(job_id)
        if job is None:
            await _send_error(send, 404, f"unknown job {job_id!r}")
            return
        if tail == "":
            await _send_json(send, 200, job.detail())
        elif tail == "events":
            await self._events(scope, receive, send, job, query)
        else:
            await self._result(send, job, query)

    # -- simple endpoints ----------------------------------------------
    async def _healthz(self, send) -> None:
        loop = asyncio.get_running_loop()
        counts = await loop.run_in_executor(None, self.manager.counts)
        await _send_json(send, 200, {
            "status": "ok",
            "version": __version__,
            "jobs": counts,
        })

    async def _store_stats(self, send) -> None:
        loop = asyncio.get_running_loop()
        stats = await loop.run_in_executor(None, self.manager.store_stats)
        await _send_json(send, 200, stats)

    # -- submission ----------------------------------------------------
    async def _submit(self, receive, send) -> None:
        body = await _read_body(receive)
        if body is None:
            await _send_error(send, 413, "request body too large")
            return
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            await _send_error(send, 400, f"body is not valid JSON: {exc}")
            return
        # Parsing builds and digests every spec, so it runs on the
        # default executor, not the loop (which serves other requests,
        # SSE streams and /v1/metrics meanwhile).  The module global is
        # looked up per call, so a rebound ``parse_job_request`` is used.
        loop = asyncio.get_running_loop()
        try:
            request = await loop.run_in_executor(
                None, parse_job_request, data)
        except BadRequestError as exc:
            await _send_error(send, 400, str(exc))
            return
        try:
            outcome = await loop.run_in_executor(
                None, self.manager.submit, request)
        except QueueFullError as exc:
            await _send_json(send, 429, {
                "error": str(exc), "queue_depth": exc.depth,
                "queue_limit": exc.limit})
            return
        except ServiceClosedError as exc:
            await _send_error(send, 503, str(exc))
            return
        job = outcome.job
        payload = job.detail()
        payload["outcome"] = outcome.outcome
        payload["deduped"] = outcome.deduped
        # `cached` in the POST response answers "did THIS submission
        # cost a simulation?" — true whenever the job already finished
        # or was answered warm from the store.
        payload["cached"] = outcome.cached
        status = 201 if outcome.outcome == "created" else 200
        await _send_json(send, status, payload)

    # -- results -------------------------------------------------------
    async def _result(self, send, job: Job,
                      query: Dict[str, str]) -> None:
        fmt = query.get("format", "json")
        fmt = _FORMAT_ALIASES.get(fmt, fmt)
        if fmt not in _RESULT_FORMATS:
            await _send_error(
                send, 400,
                f"unknown format {fmt!r}; formats: json, ascii, md, "
                f"tex, csv, html")
            return
        body = job.result_bytes()
        if body is None:
            await _send_json(send, 409, {
                "error": f"job {job.job_id} has no result yet "
                         f"(state: {job.state})",
                "state": job.state})
            return
        if fmt != "json":  # json: the exact `campaign run --out` bytes
            doc = parse_document(json.loads(body))
            tables = tables_for_document(doc)
            body = (render_tables(tables, fmt) + "\n").encode("utf-8")
        await _send_body(send, 200, body, _CONTENT_TYPES[fmt])

    # -- SSE -----------------------------------------------------------
    async def _events(self, scope, receive, send, job: Job,
                      query: Dict[str, str]) -> None:
        after = -1
        for name, value in scope.get("headers", []):
            if name.lower() == b"last-event-id":
                after = _parse_seq(value.decode("latin-1"), after)
        if "after" in query:
            after = _parse_seq(query["after"], after)
        await send({
            "type": "http.response.start",
            "status": 200,
            "headers": [
                (b"content-type", b"text/event-stream; charset=utf-8"),
                (b"cache-control", b"no-store"),
            ],
        })
        await _stream_events(receive, send, job.log, after)


class ClientDisconnect(Exception):
    """The HTTP client went away mid-response."""


def _parse_seq(text: str, default: int) -> int:
    try:
        return int(text)
    except ValueError:
        return default


async def _watch_disconnect(receive) -> None:
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            return


async def _next_event(iterator):
    try:
        return await iterator.__anext__()
    except StopAsyncIteration:
        return None


async def _stream_events(receive, send, log: JobEventLog,
                         after: int) -> None:
    """Replay ``log`` from ``after`` and tail it until closed.

    Ends cleanly when the log closes (job finished) or the client
    disconnects; a subscriber therefore always receives a prefix of
    the one canonical event sequence.
    """
    watcher = asyncio.ensure_future(_watch_disconnect(receive))
    iterator = log.subscribe(after)
    try:
        while True:
            step = asyncio.ensure_future(_next_event(iterator))
            done, _pending = await asyncio.wait(
                {step, watcher}, return_when=asyncio.FIRST_COMPLETED)
            if step not in done:
                step.cancel()
                raise ClientDisconnect
            event = step.result()
            if event is None:
                break
            _seq, _kind, frame = event
            await send({"type": "http.response.body", "body": frame,
                        "more_body": True})
        await send({"type": "http.response.body", "body": b"",
                    "more_body": False})
    finally:
        watcher.cancel()
        await iterator.aclose()


# -- response helpers -------------------------------------------------
async def _read_body(receive) -> Optional[bytes]:
    chunks = []
    size = 0
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise ClientDisconnect
        chunk = message.get("body", b"")
        size += len(chunk)
        if size > MAX_BODY_BYTES:
            return None
        chunks.append(chunk)
        if not message.get("more_body"):
            return b"".join(chunks)


async def _send_body(send, status: int, body: bytes,
                     content_type: str) -> None:
    await send({
        "type": "http.response.start",
        "status": status,
        "headers": [
            (b"content-type", content_type.encode("latin-1")),
            (b"content-length", str(len(body)).encode("latin-1")),
        ],
    })
    await send({"type": "http.response.body", "body": body,
                "more_body": False})


async def _send_json(send, status: int, payload: Dict[str, Any]) -> None:
    await _send_body(send, status, render_json(payload).encode("utf-8"),
                     "application/json")


async def _send_error(send, status: int, message: str) -> None:
    await _send_json(send, status, {"error": message})


__all__ = [
    "ClientDisconnect",
    "MAX_BODY_BYTES",
    "create_app",
]
