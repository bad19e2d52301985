"""Server launches and the HTTP load generator.

A *job* is one ``POST /v1/jobs`` followed by its SSE stream (completion
is read from the stream, never polled) and a ``GET`` of its result, up
to the last byte.  Responses are kept raw and checked after the
measured window, so checking costs the generator nothing while timed.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

from workloads import Job, Plan

#: Seconds a launched server may take to print its listening line.
START_TIMEOUT = 60.0
#: Seconds any single HTTP exchange may take.
HTTP_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (exit non-zero)."""


@dataclass
class Record:
    """One job as the generator saw it."""

    job: Job
    #: When the job was due (open loop) or started (closed loop).
    due: float
    sent: float = 0.0
    end: float = 0.0
    post_status: int = 0
    post: Optional[dict] = None
    events: bytes = b""
    result_status: int = 0
    result: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def job_id(self) -> Optional[str]:
        return self.post.get("job_id") if self.post else None


def _exchange(port: int, method: str, path: str,
              body: Optional[bytes] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    status, body = _exchange(port, "GET", path)
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return json.loads(body)


def run_job(port: int, job: Job, due: float) -> Record:
    """Submit ``job``, follow its SSE stream, fetch its result."""
    record = Record(job=job, due=due, sent=perf_counter())
    try:
        record.post_status, body = _exchange(port, "POST", "/v1/jobs",
                                             job.payload)
        record.post = json.loads(body)
        job_id = record.post.get("job_id")
        if job_id is None:
            record.error = (f"POST answered {record.post_status}: "
                            f"{body[:200]!r}")
            return record
        _status, record.events = _exchange(
            port, "GET", f"/v1/jobs/{job_id}/events")
        record.result_status, record.result = _exchange(
            port, "GET", f"/v1/jobs/{job_id}/result?format={job.fmt}")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    finally:
        record.end = perf_counter()
    return record


def closed_loop(port: int, plan: Plan,
                seconds: float) -> Tuple[float, List[Record]]:
    """``plan.clients`` clients, each starting a job when its last
    ends; none starts a job after ``seconds``.  Returns (start,
    records)."""
    records: List[Record] = []
    lock = threading.Lock()
    upcoming = iter(plan.jobs)
    start = perf_counter()
    deadline = start + seconds

    def client() -> None:
        while True:
            with lock:
                job = next(upcoming, None) \
                    if perf_counter() < deadline else None
            if job is None:
                return
            record = run_job(port, job, perf_counter())
            with lock:
                records.append(record)

    _run_threads(client, plan.clients)
    if len(records) >= len(plan.jobs):
        raise BenchError("the job list ran out before the window ended")
    return start, records


def open_loop(port: int, plan: Plan) -> Tuple[float, List[Record]]:
    """Jobs sent at their due times over at most ``plan.clients``
    connections; a job whose sender is still busy goes out late.
    Returns (start, records)."""
    records: List[Record] = []
    lock = threading.Lock()
    upcoming = iter(zip(plan.offsets, plan.jobs))
    start = perf_counter()

    def sender() -> None:
        while True:
            with lock:
                item = next(upcoming, None)
            if item is None:
                return
            offset, job = item
            due = start + offset
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            record = run_job(port, job, due)
            with lock:
                records.append(record)

    _run_threads(sender, plan.clients)
    return start, records


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Server:
    """One ``serve`` process: plain, or under the span launcher."""

    def __init__(self, root: str, store: str, log_path: str,
                 spans: Optional[str] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        # Start-up reads cached bytecode, as an installed package does,
        # whatever the caller's environment says; the cache lives under
        # the benchmark's work directory.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
        serve_args = ["--port", "0", "--store", store]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        else:
            argv = [sys.executable,
                    os.path.join(os.path.dirname(__file__),
                                 "traced_serve.py"), spans, *serve_args]
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = perf_counter() + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, remaining))
            if not ready:
                self.stop()
                raise BenchError("server did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                with open(self._log.name, "rb") as log:
                    tail = log.read()[-2000:].decode("utf-8", "replace")
                raise BenchError(f"server exited before listening:\n{tail}")
            line += chunk
        return int(line.rsplit(b":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (drain and exit, as ctrl-c), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
