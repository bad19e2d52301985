"""Streaming dispatch backends for the campaign engine.

The campaign engine dispatches through one small interface, so it
can stream: workers live for the whole campaign, results are consumed
as they complete, and a failed task is re-dispatched without waiting
for the rest of its round:

* :meth:`DispatchBackend.submit` enqueues a :class:`WorkItem`;
* :meth:`DispatchBackend.as_completed` yields :class:`Completion`
  values in **completion order** as results arrive, and tolerates new
  ``submit`` calls between yields — retries re-enter the live queue
  instead of waiting for a barrier;
* :meth:`DispatchBackend.close` releases workers.

Determinism is unaffected by completion order: the engine commits each
result into its task-index slot and merges results and metrics
snapshots in task order, so every backend — and every worker count —
produces byte-identical merged artefacts.

Two implementations:

* :class:`LocalPoolBackend` — one **persistent** process pool that
  lives for the whole campaign.  Workers are forked once (inheriting
  the parent's already-imported modules), reused across tasks and
  retry rounds, and exit on their own if the campaign process dies.
  Replicate groups ship deduplicated: one spec dict plus a seed list
  per :class:`WorkItem`, never one spec copy per replicate.
  ``jobs <= 1`` degrades to inline in-process execution — the
  reference semantics, with no subprocess ever spawned.
* :class:`RemoteStubBackend` — a subprocess-per-"host" backend
  speaking an SSH-shaped command protocol: JSONL requests down stdin,
  JSONL results and heartbeats up stdout
  (:mod:`repro.runner.remote_worker`).  It proves the interface works
  across process boundaries — a work item's ``[result, snapshot]``
  pairs cross the wire as one JSON payload in the store's codec
  (:func:`repro.store.encode_value`) — and it demonstrates the fault
  model a real multi-host backend needs: worker heartbeats
  (:mod:`repro.runner.heartbeat`), dead-host detection (process exit
  *or* heartbeat silence), and re-dispatch of in-flight work to
  surviving hosts (counter ``dispatch.worker_restarts``).

Work executes through one module-level entry point,
:func:`execute_work_item`, resolved against the :data:`WORK_KINDS`
registry — picklable for process pools, importable by remote workers,
and monkeypatchable by fault-injection tests.  It returns JSON values
only: a reducer whose result is not one fails its task there, on
every backend alike.  A task that raises becomes a structured
:class:`TaskError`, never an exception that escapes the backend.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..obs.registry import NULL_REGISTRY
from ..store.result_store import decode_value, encode_value
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    HeartbeatMonitor,
)

#: The dispatch backends the CLI and engine accept by name.
DISPATCH_BACKENDS = ("pool", "remote-stub")

#: How many consecutive dead-host re-dispatches one item survives
#: before it is failed as a structured error (guards against a task
#: that kills every worker it lands on).
MAX_REDISPATCHES = 3


# ----------------------------------------------------------------------
# Task errors, work items and the worker entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskError:
    """Structured record of one task's failure.

    Sits in the failed task's slot of the campaign result list, so the
    caller keeps every sibling result and knows exactly which indices
    failed.  ``error_type`` is the exception class name, ``traceback``
    the formatted worker-side traceback (best effort: an exception that
    crossed a process boundary reformats without the worker frames).
    """

    index: int
    error_type: str
    message: str
    traceback: str = ""
    timed_out: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "timeout" if self.timed_out else "error"
        return (f"TaskError(task {self.index}: {kind} "
                f"{self.error_type}: {self.message})")


def task_error_from_exception(exc: BaseException,
                              index: int = -1) -> TaskError:
    """Structure ``exc`` as a :class:`TaskError` for slot ``index``.

    The backends pass the placeholder ``index=-1`` and let the campaign
    engine rewrite it per task slot.
    """
    return TaskError(
        index=index,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(_traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
        timed_out=isinstance(exc, TimeoutError),
    )


@dataclass
class WorkItem:
    """One unit of dispatch: a spec run or a replicate batch.

    ``kind`` selects the handler from :data:`WORK_KINDS`; ``spec`` is
    the plain ``RunSpec.to_dict()`` payload; a batch item carries the
    replicate group's ``seeds`` beside **one** shared spec dict (the
    payload-dedup shape).  ``redispatches`` counts dead-host
    re-dispatches (remote backend only).
    """

    item_id: int
    kind: str
    spec: dict
    seeds: Optional[List[int]] = None
    timeout: Optional[float] = None
    redispatches: int = 0


@dataclass
class Completion:
    """One finished :class:`WorkItem`: a value or a structured error.

    ``error`` carries ``index=-1`` — the engine rewrites it per task
    slot, since one batch item maps to several campaign indices.
    """

    item: WorkItem
    value: Any = None
    error: Optional[TaskError] = None


def _spec_handler(spec_dict: dict, seeds: Optional[List[int]],
                  timeout: Optional[float]) -> List[List[Any]]:
    from ..campaign.engine import execute_spec_task

    return [execute_spec_task(spec_dict, timeout=timeout)]


def _batch_handler(spec_dict: dict, seeds: Optional[List[int]],
                   timeout: Optional[float]) -> List[List[Any]]:
    from ..campaign.engine import execute_batch_task

    return execute_batch_task(spec_dict, list(seeds or ()), timeout=timeout)


#: Work-kind registry: handler(spec_dict, seeds, timeout) -> one
#: ``[result, snapshot]`` pair per task of the item.  A dict (not a
#: match statement) so fault-injection tests can wrap a handler to
#: poison specific seeds inside the worker.
WORK_KINDS: Dict[str, Callable[[dict, Optional[List[int]],
                                Optional[float]], List[List[Any]]]] = {
    "spec": _spec_handler,
    "batch": _batch_handler,
}


def execute_work_item(kind: str, spec_dict: dict,
                      seeds: Optional[List[int]] = None,
                      timeout: Optional[float] = None) -> List[List[Any]]:
    """The one worker entry point every backend executes.

    Returns one ``[result, snapshot]`` pair per task of the item; a
    result the store codec refuses (:func:`repro.store.encode_value`)
    fails the item with :class:`TypeError`, whichever backend runs it.
    Module-level (picklable for process pools) and registry-resolved
    (importable by remote workers from the ``kind`` string alone).
    """
    try:
        handler = WORK_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown work kind {kind!r}; expected one of "
            f"{tuple(WORK_KINDS)}") from None
    pairs = handler(spec_dict, seeds, timeout)
    for result, _snapshot in pairs:
        encode_value(result)
    return pairs


def _run_inline(item: WorkItem) -> Completion:
    try:
        return Completion(item, value=execute_work_item(
            item.kind, item.spec, item.seeds, item.timeout))
    except Exception as exc:
        return Completion(item, error=task_error_from_exception(exc))


def _completion_from_future(item: WorkItem, future: Future) -> Completion:
    exc = future.exception()
    if exc is None:
        return Completion(item, value=future.result())
    return Completion(item, error=task_error_from_exception(exc))


# ----------------------------------------------------------------------
# The interface
# ----------------------------------------------------------------------
class DispatchBackend:
    """Submit work, stream completions, release workers.

    The contract the engine relies on:

    * ``submit`` never blocks on task execution (it may enqueue);
    * ``as_completed`` yields one :class:`Completion` per submitted
      item and returns when no submitted work remains; calling
      ``submit`` between yields extends the stream (retries re-enter
      the live queue);
    * ``close`` is idempotent and releases every worker resource.
    """

    #: Short name used for the ``dispatch.backend.<name>`` counter.
    name = "abstract"

    def submit(self, item: WorkItem) -> None:
        """Enqueue ``item`` for execution (never blocks on a task)."""
        raise NotImplementedError

    def as_completed(self) -> Iterator[Completion]:
        """Yield one :class:`Completion` per item, completion order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every worker resource (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "DispatchBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Local persistent pool
# ----------------------------------------------------------------------
#: How often a pool worker checks that the process that started it is
#: still its parent.
_PARENT_POLL_S = 0.25


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the campaign process is gone.

    A SIGKILLed parent cannot shut its pool down, and an idle worker
    blocked on the call queue never sees EOF (it holds both pipe ends
    itself), so it would linger re-parented to init.  A daemon thread
    notices the re-parenting instead and ends the worker.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True,
                     name="parent-watch").start()


class LocalPoolBackend(DispatchBackend):
    """A persistent process pool living for the whole campaign.

    The executor is created lazily on first submit — a fully-warm
    campaign never forks a worker — and reused across every task and
    retry until :meth:`close`; its workers exit by themselves if the
    campaign process dies first.  A worker that dies fails every item
    in flight (the engine retries them) and the next submit starts a
    fresh pool.  With ``jobs <= 1`` items execute inline in the parent
    process when :meth:`as_completed` drains the queue: the serial
    reference semantics.
    """

    name = "pool"

    def __init__(self, jobs: int = 1, metrics=NULL_REGISTRY) -> None:
        self._jobs = max(1, int(jobs))
        self._metrics = metrics
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Future, WorkItem] = {}
        self._inline: deque = deque()
        self._closed = False

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._jobs, initializer=_exit_with_parent)
        return self._pool

    def submit(self, item: WorkItem) -> None:
        """Queue ``item`` inline (``jobs <= 1``) or on the pool."""
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._jobs <= 1:
            self._inline.append(item)
            return
        call = (execute_work_item, item.kind, item.spec, item.seeds,
                item.timeout)
        try:
            future = self._ensure_pool().submit(*call)
        except BrokenProcessPool:
            # A worker died; the executor refuses all further work.
            self._pool.shutdown(wait=True)
            self._pool = None
            future = self._ensure_pool().submit(*call)
        self._futures[future] = item

    def as_completed(self) -> Iterator[Completion]:
        """Stream completions; inline items run here, lazily."""
        while self._inline or self._futures:
            if self._inline:
                yield _run_inline(self._inline.popleft())
                continue
            done, _ = futures_wait(list(self._futures),
                                   return_when=FIRST_COMPLETED)
            for future in done:
                yield _completion_from_future(self._futures.pop(future),
                                              future)

    def close(self) -> None:
        """Shut the pool down and drop any queued work."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._futures.clear()
        self._inline.clear()


# ----------------------------------------------------------------------
# Remote stub: subprocess "hosts" over a JSONL pipe protocol
# ----------------------------------------------------------------------
@dataclass
class _StubHost:
    """One live worker subprocess plus its reader-thread plumbing."""

    serial: str
    proc: subprocess.Popen
    reader: threading.Thread
    inflight: Optional[WorkItem] = None
    dead: bool = False
    sends: int = field(default=0)

    def send(self, message: dict) -> bool:
        """Write one JSONL request; False means the pipe is gone."""
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
            self.sends += 1
            return True
        except (OSError, ValueError):
            return False


class RemoteStubBackend(DispatchBackend):
    """Subprocess-per-host dispatch over JSONL pipes.

    Localhost stand-in for an SSH/job-array backend: each "host" is
    ``python -m repro.runner.remote_worker`` reading task requests on
    stdin and writing results and heartbeats on stdout.  The parent
    keeps at most one task in flight per host, re-assigns the backlog
    as hosts free up, and treats a host as dead when its process exits
    *or* its heartbeat goes silent past ``heartbeat_timeout``.  A dead
    host's in-flight item re-enters the queue head and a replacement
    host is spawned (``dispatch.worker_restarts``); an item that kills
    :data:`MAX_REDISPATCHES` hosts in a row is failed with a
    structured :class:`TaskError` instead of
    looping forever.

    A result message carries the work item's ``[result, snapshot]``
    pairs as one JSON payload in the store codec
    (:func:`repro.store.encode_value`); a message whose payload does
    not decode fails its item with a :class:`TaskError`.
    """

    name = "remote-stub"

    def __init__(self, hosts: int = 2, metrics=NULL_REGISTRY,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 poll_interval: float = 0.05,
                 max_redispatches: int = MAX_REDISPATCHES) -> None:
        self._target_hosts = max(1, int(hosts))
        self._metrics = metrics
        self._heartbeat_interval = heartbeat_interval
        self._monitor = HeartbeatMonitor(timeout=heartbeat_timeout)
        self._poll = poll_interval
        self._max_redispatches = max_redispatches
        self._hosts: List[_StubHost] = []
        self._events: Queue = Queue()
        self._backlog: deque = deque()
        self._dead_letters: deque = deque()
        self._spawned = 0
        self._closed = False

    # -- host lifecycle ------------------------------------------------
    def _worker_env(self) -> dict:
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else "")
        env["REPRO_HEARTBEAT_INTERVAL"] = repr(self._heartbeat_interval)
        return env

    def _spawn_host(self) -> _StubHost:
        serial = f"host-{self._spawned}"
        self._spawned += 1
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.remote_worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self._worker_env(), text=True, bufsize=1)
        reader = threading.Thread(
            target=self._read_loop, args=(serial, proc), daemon=True,
            name=f"remote-stub-reader-{serial}")
        host = _StubHost(serial=serial, proc=proc, reader=reader)
        self._monitor.expect(serial)
        reader.start()
        self._hosts.append(host)
        return host

    def _read_loop(self, serial: str, proc: subprocess.Popen) -> None:
        try:
            for line in proc.stdout:
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                self._events.put((serial, message))
        except (OSError, ValueError):
            pass
        self._events.put((serial, None))

    def _ensure_hosts(self) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        while len(self._hosts) < self._target_hosts:
            self._spawn_host()

    def _host_by_serial(self, serial: str) -> Optional[_StubHost]:
        for host in self._hosts:
            if host.serial == serial:
                return host
        return None

    # -- dispatch ------------------------------------------------------
    def submit(self, item: WorkItem) -> None:
        """Queue ``item``; hosts pick work up during
        :meth:`as_completed`."""
        if self._closed:
            raise RuntimeError("backend is closed")
        self._backlog.append(item)

    def _assign(self) -> None:
        for host in self._hosts:
            if not self._backlog:
                return
            if host.dead or host.inflight is not None:
                continue
            item = self._backlog.popleft()
            request = {"type": "task", "id": item.item_id,
                       "kind": item.kind, "spec": item.spec,
                       "seeds": item.seeds, "timeout": item.timeout}
            if host.send(request):
                host.inflight = item
            else:
                self._backlog.appendleft(item)
                self._declare_dead(host)

    def _declare_dead(self, host: _StubHost) -> None:
        if host.dead:
            return
        host.dead = True
        try:
            host.proc.kill()
        except OSError:
            pass
        self._monitor.forget(host.serial)
        self._hosts.remove(host)
        self._metrics.counter("dispatch.worker_restarts").inc()
        item = host.inflight
        host.inflight = None
        if item is not None:
            item.redispatches += 1
            if item.redispatches > self._max_redispatches:
                self._dead_letters.append(Completion(
                    item, error=TaskError(
                        index=-1, error_type="WorkerDied",
                        message=f"host died {item.redispatches} times "
                                f"while running this task")))
            else:
                self._backlog.appendleft(item)
        if not self._closed:
            self._spawn_host()

    def _reap(self) -> None:
        for host in list(self._hosts):
            if host.dead:
                continue
            if host.proc.poll() is not None or self._monitor.stale(
                    host.serial):
                self._declare_dead(host)

    def _pending(self) -> bool:
        return bool(self._backlog or self._dead_letters
                    or any(h.inflight is not None for h in self._hosts))

    def as_completed(self) -> Iterator[Completion]:
        """Stream completions from the host fleet.

        Also the supervision loop: assigns backlog to free hosts,
        consumes heartbeats, reaps dead hosts (process exit or
        heartbeat silence) and re-dispatches their in-flight work.
        """
        if self._pending():
            self._ensure_hosts()
        while self._pending():
            while self._dead_letters:
                yield self._dead_letters.popleft()
            self._assign()
            try:
                serial, message = self._events.get(timeout=self._poll)
            except Empty:
                self._reap()
                continue
            host = self._host_by_serial(serial)
            if host is None or host.dead:
                continue  # stale message from an already-buried host
            if message is None:
                self._declare_dead(host)
                continue
            kind = message.get("type")
            if kind in ("heartbeat", "ready"):
                self._monitor.beat(serial)
                continue
            if kind != "result":
                continue
            self._monitor.beat(serial)
            item = host.inflight
            host.inflight = None
            if item is None or message.get("id") != item.item_id:
                continue
            if message.get("ok"):
                try:
                    value = decode_value(message.get("enc"),
                                         message.get("payload"))
                except ValueError as exc:
                    yield Completion(item,
                                     error=task_error_from_exception(exc))
                else:
                    yield Completion(item, value=value)
            else:
                error = message.get("error") or {}
                yield Completion(item, error=TaskError(
                    index=-1,
                    error_type=error.get("error_type", "RemoteError"),
                    message=error.get("message", ""),
                    traceback=error.get("traceback", ""),
                    timed_out=bool(error.get("timed_out"))))

    def close(self) -> None:
        """Politely shut hosts down, then kill whatever lingers."""
        self._closed = True
        for host in self._hosts:
            host.send({"type": "shutdown"})
        for host in self._hosts:
            try:
                host.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                host.proc.kill()
                host.proc.wait()
            except OSError:
                pass
            for stream in (host.proc.stdin, host.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        self._hosts.clear()
        self._backlog.clear()
        self._dead_letters.clear()


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def make_backend(dispatch: Union[str, DispatchBackend], jobs: int = 1,
                 metrics=NULL_REGISTRY) -> DispatchBackend:
    """Resolve a dispatch selector (name or instance) to a backend.

    ``"pool"`` maps ``jobs`` to pool workers, ``"remote-stub"`` runs
    one task at a time on each of ``jobs`` subprocess hosts.  An already-built backend
    passes through untouched (the caller keeps ownership).
    """
    if isinstance(dispatch, DispatchBackend):
        return dispatch
    if dispatch == "pool":
        return LocalPoolBackend(jobs=jobs, metrics=metrics)
    if dispatch == "remote-stub":
        return RemoteStubBackend(hosts=jobs, metrics=metrics)
    raise ValueError(f"unknown dispatch backend {dispatch!r}; expected "
                     f"one of {DISPATCH_BACKENDS}")


__all__ = [
    "DISPATCH_BACKENDS",
    "MAX_REDISPATCHES",
    "Completion",
    "DispatchBackend",
    "LocalPoolBackend",
    "RemoteStubBackend",
    "TaskError",
    "WORK_KINDS",
    "WorkItem",
    "execute_work_item",
    "make_backend",
    "task_error_from_exception",
]
