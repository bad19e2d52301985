"""One "host" of the remote-stub dispatch backend.

Run as ``python -m repro.runner.remote_worker``.  Speaks a minimal
SSH-shaped command protocol with the parent
(:class:`repro.runner.backends.RemoteStubBackend`): JSONL requests on
stdin, JSONL responses on stdout.

Parent → worker::

    {"type": "task", "id": 7, "kind": "spec"|"batch",
     "spec": {...}, "seeds": [0, 1, ...] | null, "timeout": 30.0 | null}
    {"type": "shutdown"}

Worker → parent::

    {"type": "ready", "pid": 12345}
    {"type": "heartbeat"}                       # every interval, from a
                                                # daemon thread, so a busy
                                                # worker still beats
    {"type": "result", "id": 7, "ok": true,
     "enc": "json"|"json+zlib", "payload": "..."}
    {"type": "result", "id": 7, "ok": false,
     "error": {"error_type": ..., "message": ..., "traceback": ...,
               "timed_out": false}}

A result's payload encodes, in the store codec
(:func:`repro.store.encode_value`), the ``[result, snapshot]`` pairs
:func:`~repro.runner.backends.execute_work_item` returns; a result
that is not a JSON value fails there and comes back ``ok: false``.
Tasks execute in the worker's main thread, so the per-task
``SIGALRM`` deadline (:func:`repro.campaign.engine._deadline`) holds
on remote hosts just as it does in local pools.  A heartbeat thread
(:class:`repro.runner.heartbeat.HeartbeatEmitter`) shares a stdout
lock with result writes so lines never interleave.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import traceback

from ..store.result_store import encode_value
from .backends import execute_work_item
from .heartbeat import DEFAULT_HEARTBEAT_INTERVAL, HeartbeatEmitter


def main() -> int:
    out_lock = threading.Lock()

    def send(message: dict) -> None:
        with out_lock:
            sys.stdout.write(json.dumps(message, sort_keys=True) + "\n")
            sys.stdout.flush()

    interval = float(os.environ.get("REPRO_HEARTBEAT_INTERVAL",
                                    repr(DEFAULT_HEARTBEAT_INTERVAL)))
    emitter = HeartbeatEmitter(lambda: send({"type": "heartbeat"}),
                               interval=interval)
    emitter.start()
    send({"type": "ready", "pid": os.getpid()})

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except ValueError:
            continue
        kind = request.get("type")
        if kind == "shutdown":
            break
        if kind != "task":
            continue
        task_id = request.get("id")
        try:
            value = execute_work_item(
                request["kind"], request["spec"],
                request.get("seeds"), request.get("timeout"))
            enc, payload = encode_value(value)
            send({"type": "result", "id": task_id, "ok": True,
                  "enc": enc, "payload": payload})
        except Exception as exc:
            send({"type": "result", "id": task_id, "ok": False,
                  "error": {"error_type": type(exc).__name__,
                            "message": str(exc),
                            "traceback": traceback.format_exc(),
                            "timed_out": isinstance(exc, TimeoutError)}})
    emitter.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as subprocess
    sys.exit(main())
