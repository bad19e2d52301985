"""The correctness gate every measured job passes or fails.

A job fails when any of these does not hold:

* ``POST`` answers 201 for a cold job and 200 for a warm one, and its
  ``cached`` flag is false on cold jobs and true on warm ones;
* the SSE stream ends in a ``done`` event;
* the result answers 200; JSON results have schema
  ``repro-campaign-result/2`` and one entry per submitted spec, none of
  them an ``error``;
* warm results are byte-equal to the bytes recorded when the store was
  filled.

Cold results are additionally recomputed in-process for a seeded
sample (see ``run.py``), since their expected bytes exist only after
the server produced them.
"""

from __future__ import annotations

import json
from typing import Optional

from loadgen import Record

RESULT_SCHEMA = "repro-campaign-result/2"


def last_event(stream: bytes) -> Optional[str]:
    """The kind of the final SSE frame in ``stream``."""
    kind = None
    for line in stream.decode("utf-8", "replace").splitlines():
        if line.startswith("event: "):
            kind = line[len("event: "):]
    return kind


def check_document(body: bytes, tasks: int) -> str:
    """Why a JSON result document is wrong, or "" when it is right."""
    try:
        document = json.loads(body)
    except ValueError as exc:
        return f"result is not JSON: {exc}"
    if document.get("schema") != RESULT_SCHEMA:
        return f"result schema is {document.get('schema')!r}"
    entries = document.get("tasks")
    if not isinstance(entries, list) or len(entries) != tasks:
        count = len(entries) if isinstance(entries, list) else None
        return f"result has {count} task entries, expected {tasks}"
    for entry in entries:
        if "error" in entry or "result" not in entry:
            return f"task {entry.get('label')!r} carries no result"
    return ""


def check_record(record: Record) -> str:
    """Why one job failed its checks, or "" when it passed."""
    if record.error:
        return record.error
    job = record.job
    cold = job.kind == "cold"
    if record.post_status != (201 if cold else 200):
        return f"POST answered {record.post_status}"
    if record.post.get("cached") is not (not cold):
        return f"cached is {record.post.get('cached')!r} on a {job.kind} job"
    kind = last_event(record.events)
    if kind != "done":
        return f"SSE stream ended in {kind!r}"
    if record.result_status != 200:
        return f"result answered {record.result_status}"
    if job.expected is not None and record.result != job.expected:
        return "result bytes differ from the recorded bytes"
    if job.fmt == "json":
        return check_document(record.result, job.tasks)
    return ""
