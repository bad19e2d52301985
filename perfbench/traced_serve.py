"""Launch ``repro-diag serve`` with span recording at layer boundaries.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/traced_serve.py SPANS.json --port 0 --store DIR

Everything after the spans path is handed unchanged to the ``serve``
verb, so the traced server runs with the same defaults as a plain one.
Before serving, this launcher wraps the public functions each layer
exposes (the per-layer table in ``README.md`` lists them) and records
one span per call: ``[id, parent id, name, start, end, job id,
extra]``.
Spans stay in memory and are written as one JSON array when the server
shuts down (SIGINT).

Parents follow the caller: a ``contextvars`` variable holds the open
span, asyncio tasks get their own copy, and the event loop's default
executor is replaced by one that runs each call inside the caller's
context, so work the app hands to a thread stays under its request.
A job's worker thread starts a new root (``service.job``).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import importlib.abc
import importlib.util
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, List, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: Field positions in a span record.
SID, PARENT, NAME, START, END, JOB, EXTRA = range(7)


class Tracer:
    """An in-memory span recorder (appends are atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)

    def open(self, name: str, job: Optional[str] = None):
        parent = _CURRENT.get()
        record = [next(self._ids), parent[SID] if parent else 0, name,
                  perf_counter(), 0.0, job, None]
        return record, _CURRENT.set(record)

    def close(self, record: list, token) -> None:
        record[END] = perf_counter()
        _CURRENT.reset(token)
        self.spans.append(record)

    def wrap(self, name: str, fn: Callable,
             job: Optional[Callable[..., Optional[str]]] = None,
             extra: Optional[Callable[..., Any]] = None) -> Callable:
        """``fn`` recording one span per call.

        ``job(*args)`` names the job the call serves; ``extra(result,
        *args)`` attaches a count; an exception sets extra to
        ``"error"`` and propagates.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, token = self.open(
                name, job(*args, **kwargs) if job else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[EXTRA] = "error"
                raise
            finally:
                self.close(record, token)
            if extra is not None:
                record[EXTRA] = extra(result, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


class _ContextExecutor(ThreadPoolExecutor):
    """A thread pool that runs each call in its submitter's context."""

    def submit(self, fn, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)


class _TracedApp:
    """The ASGI app with one span per HTTP request."""

    def __init__(self, app: Callable, tracer: Tracer) -> None:
        self.app = app
        self.tracer = tracer
        self._executor_installed = False

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] != "http":
            await self.app(scope, receive, send)
            return
        if not self._executor_installed:
            import asyncio

            asyncio.get_running_loop().set_default_executor(
                _ContextExecutor(thread_name_prefix="asyncio"))
            self._executor_installed = True
        path = scope["path"]
        parts = path.split("/")
        job = parts[3] if path.startswith("/v1/jobs/") else None
        name = ("service.stream" if path.endswith("/events")
                else "service.request")
        record, token = self.tracer.open(name, job)
        try:
            await self.app(scope, receive, send)
        finally:
            self.tracer.close(record, token)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Run ``patch(module)`` right after ``fullname`` is first imported.

    Lets the launcher wrap the vectorized kernel without importing
    numpy at start-up, which a plain server does not do either.
    """

    def __init__(self, fullname: str, patch: Callable) -> None:
        self.fullname = fullname
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        load = spec.loader.exec_module

        def exec_module(module):
            load(module)
            self.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def _job_of_request(_self, request, *args, **kwargs) -> str:
    return request.job_id


def _job_of_run(_self, job, *args, **kwargs) -> str:
    return job.job_id


def _length(result, *args, **kwargs) -> int:
    return len(result)


def _patch_vec(tracer: Tracer, kernel) -> None:
    kernel.compile_schedule = tracer.wrap("vec.compile",
                                          kernel.compile_schedule)
    kernel.lower_injection = tracer.wrap("vec.inject",
                                         kernel.lower_injection)
    kernel.run_batch = tracer.wrap("vec.run_batch", kernel.run_batch)
    kernel.execute_batch = tracer.wrap("vec.execute_batch",
                                       kernel.execute_batch, extra=_length)
    kernel.execute_vectorized = tracer.wrap("vec.execute",
                                            kernel.execute_vectorized)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the package in place."""
    import repro.service
    import repro.service.app as app_module
    import repro.service.jobs as jobs_module
    from repro.campaign.state import CampaignState
    from repro.core.service import DiagnosedCluster, LowLatencyCluster
    from repro.runner import backends
    from repro.service.events import JobEventLog
    from repro.service.jobs import JobManager
    from repro.spec.model import RunSpec
    from repro.store.result_store import ResultStore

    spec_build = importlib.import_module("repro.spec.build")
    wrap = tracer.wrap

    create_app = repro.service.create_app
    repro.service.create_app = \
        lambda manager: _TracedApp(create_app(manager), tracer)

    parse = app_module.parse_job_request

    def traced_parse(data):
        request_span = _CURRENT.get()
        record, token = tracer.open("service.parse")
        try:
            request = parse(data)
        finally:
            tracer.close(record, token)
        record[JOB] = request.job_id
        if request_span is not None:
            request_span[JOB] = request.job_id
        return request

    app_module.parse_job_request = traced_parse
    app_module.render_json = wrap("results.render", app_module.render_json,
                                  extra=_length)
    app_module.render_tables = wrap("results.render",
                                    app_module.render_tables, extra=_length)
    JobManager.submit = wrap(
        "service.submit", JobManager.submit, job=_job_of_request,
        extra=lambda outcome, *a, **k: outcome.outcome)
    JobManager._run_job = wrap("service.job", JobManager._run_job,
                               job=_job_of_run)
    JobEventLog.append = wrap("service.event", JobEventLog.append)
    jobs_module.run_campaign = wrap("campaign.run", jobs_module.run_campaign)
    jobs_module.result_document = wrap("results.document",
                                       jobs_module.result_document)
    CampaignState.save = wrap("campaign.save", CampaignState.save)

    has = ResultStore.has
    get_many = ResultStore.get_many
    put_many = ResultStore.put_many
    ResultStore.has = wrap("store.has", has,
                           extra=lambda hit, *a, **k: int(bool(hit)))
    traced_get_many = wrap(
        "store.get_many", get_many,
        extra=lambda found, _self, keys: [len(keys), len(found)])
    ResultStore.get_many = \
        lambda self, keys: traced_get_many(self, list(keys))
    traced_put_many = wrap("store.put_many", put_many,
                           extra=lambda _r, _self, items: len(items))
    ResultStore.put_many = \
        lambda self, items: traced_put_many(self, list(items))
    ResultStore.put = wrap("store.put", ResultStore.put)

    backends.execute_work_item = wrap(
        "runner.exec", backends.execute_work_item)
    spec_build.build = wrap("sim.build", spec_build.build)
    for cls in (DiagnosedCluster, LowLatencyCluster):
        cls.run_rounds = wrap(
            "sim.run_rounds", cls.run_rounds,
            extra=lambda _r, self, n_rounds: len(self.services) * n_rounds)
    RunSpec.full_digest = wrap("spec.digest", RunSpec.full_digest)
    RunSpec.to_dict = wrap("spec.codec", RunSpec.to_dict)
    RunSpec.from_dict = classmethod(
        wrap("spec.codec", RunSpec.from_dict.__func__))

    patch_vec = functools.partial(_patch_vec, tracer)
    if "repro.vec.kernel" in sys.modules:
        patch_vec(sys.modules["repro.vec.kernel"])
    else:
        sys.meta_path.insert(0, _PatchOnImport("repro.vec.kernel",
                                               patch_vec))


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: traced_serve.py SPANS.json [serve options]",
              file=sys.stderr)
        return 2
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
