"""The campaign engine: store-first, checkpointed, fault-tolerant runs.

A *campaign* is an ordered list of :class:`~repro.spec.RunSpec` values
(Monte Carlo repetitions, tuning grids, regression suites) whose
results aggregate into one artefact.  :func:`run_campaign` executes a
campaign with three guarantees the bare sweep layer never had:

1. **Store-first execution.**  Every task's content address
   (:func:`repro.store.store_key`) is consulted against a
   :class:`~repro.store.ResultStore` before any work is dispatched;
   hits replay the cached result *and* its metrics snapshot, so a
   fully-warm campaign is pure index lookups and its merged metrics
   are byte-identical to an uncached ``jobs=1`` run.
2. **Checkpoint/resume.**  Completed tasks are committed to the store
   *as each one finishes* — streaming commits bound what a SIGKILL can
   lose to the tasks in flight at that instant, never a whole chunk —
   and a tiny atomic state file (:mod:`repro.campaign.state`) tracks
   progress.  A campaign killed mid-flight resumes with
   ``resume=True`` (CLI ``--resume``), re-runs only what the store is
   missing, and produces the same bytes as an uninterrupted run.
3. **Fault tolerance.**  Workers run with an optional per-task
   deadline (SIGALRM inside the worker, so a hung task cannot wedge
   the sweep), failures surface as structured
   :class:`~repro.runner.pool.TaskError` values, and a failed task
   re-enters the **live** dispatch queue with bounded exponential
   backoff — no retry round barrier, siblings keep streaming.  A task
   that keeps failing ends up as a ``TaskError`` in its result slot —
   the rest of the campaign completes regardless.

Dispatch goes through a pluggable streaming backend
(:mod:`repro.runner.backends`): a **persistent** local process pool
by default (workers forked once for the whole campaign, results
consumed via ``as_completed``), work-stealing multi-pool and
remote-stub multi-host backends behind the same interface
(``dispatch="pool" | "multipool" | "remote-stub"`` or any
:class:`~repro.runner.backends.DispatchBackend` instance).

Determinism contract: results and snapshots are merged in task order
(every completion lands in its task-index slot, whatever order and
whichever backend delivered it), cache hits replay exactly what
execution produced, and the engine's own bookkeeping (``store.*`` /
``campaign.*`` / ``dispatch.*`` counters on the *engine* registry)
never leaks into the merged run metrics — the merged snapshot is
byte-identical across backends and job counts.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..obs.registry import NULL_REGISTRY, empty_snapshot, merge_snapshots
from ..runner.backends import DispatchBackend, WorkItem, make_backend
from ..runner.pool import TaskError
from ..spec import RunSpec, run_spec_dict
from ..store import ResultStore, store_key
from .state import CampaignState, campaign_id

#: Default number of re-dispatch rounds for failed tasks.
DEFAULT_RETRIES = 2
#: First retry delay in seconds; doubles per round, capped below.
DEFAULT_BACKOFF = 0.25
DEFAULT_MAX_BACKOFF = 2.0


class TaskTimeout(TimeoutError):
    """A worker task exceeded its per-task deadline."""


class InterruptedCampaignError(RuntimeError):
    """An unfinished checkpoint exists and ``resume`` was not requested."""


class CampaignFailedError(RuntimeError):
    """Raised by :meth:`CampaignResult.raise_first_error` on failures."""


#: After a deadline expires, SIGALRM re-fires at this interval until the
#: guarded block exits (see :func:`_deadline`).
_DEADLINE_REFIRE_S = 0.05


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`TaskTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM`` so a wedged simulation is interrupted
    *inside the worker* instead of blocking the whole pool; silently a
    no-op off POSIX or outside the main thread (the pool runs tasks in
    worker main threads, so the guard holds where it matters).

    Python discards an exception raised where nothing can catch it (a
    ``gc.callbacks`` hook, ``__del__``, a weakref finalizer) and only
    prints "Exception ignored".  So once the deadline has passed the
    timer keeps re-firing until the block exits, and a body that still
    completes after an expiry raises :class:`TaskTimeout` on exit.
    """
    if not seconds or seconds <= 0 or os.name != "posix" \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    message = f"task exceeded the {seconds:g}s deadline"
    active, expired = True, False

    def _expired(signum, frame):
        nonlocal expired
        if not active:
            return  # a tick handled after the block began disarming
        expired = True
        raise TaskTimeout(message)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds, _DEADLINE_REFIRE_S)
    try:
        yield
    finally:
        active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise TaskTimeout(message)


def execute_spec_task(spec_dict: dict,
                      timeout: Optional[float] = None) -> Tuple[Any, dict]:
    """The campaign pool worker: one metered spec run under a deadline.

    Always collects metrics — the snapshot is cached alongside the
    result so warm campaigns replay observability byte-identically.
    """
    with _deadline(timeout):
        return run_spec_dict(spec_dict, collect_metrics=True)


def execute_batch_task(spec_dict: dict, seeds: List[int],
                       timeout: Optional[float] = None
                       ) -> List[Tuple[Any, dict]]:
    """Pool worker for a vectorized replicate batch under one deadline.

    One kernel execution simulates every seed in lockstep; the return
    value is one ``(result, snapshot)`` pair per seed, each exactly
    what :func:`execute_spec_task` would produce for the seed-shifted
    spec — so batched and per-task dispatch fill the store with the
    same bytes.
    """
    with _deadline(timeout):
        from ..vec import execute_batch

        spec = RunSpec.from_dict(spec_dict)
        return execute_batch(spec, seeds=seeds, collect_metrics=True)


def _replicate_groups(tasks: List["CampaignTask"],
                      pending: List[int]) -> List[List[int]]:
    """Pending vectorized tasks grouped into replicate batches.

    Two tasks batch together when their specs are identical except for
    ``cluster.seed`` — the Monte Carlo shape.  Only groups of at least
    two are returned (singletons go through the ordinary per-task
    worker); each group keeps task order, so results commit in the same
    order either way.
    """
    groups: Dict[str, List[int]] = {}
    for index in pending:
        spec = tasks[index].spec
        if spec.backend != "vectorized":
            continue
        data = spec.to_dict()
        data["cluster"] = dict(data["cluster"])
        data["cluster"].pop("seed", None)
        groups.setdefault(json.dumps(data, sort_keys=True), []).append(index)
    return [group for group in groups.values() if len(group) > 1]


@dataclass(frozen=True)
class CampaignTask:
    """One campaign slot: display label, spec, and its store key."""

    label: str
    spec: RunSpec
    key: str


@dataclass
class CampaignResult:
    """Everything a finished (or partially failed) campaign produced."""

    name: str
    tasks: List[CampaignTask]
    #: Per-task reducer results in task order; a slot holds a
    #: :class:`TaskError` when the task exhausted its retries.
    results: List[Any]
    #: Per-task metrics snapshots in task order (empty for failures).
    snapshots: List[dict]
    hits: int = 0
    misses: int = 0
    #: Total task re-dispatches across all retry rounds.
    retried: int = 0

    @property
    def errors(self) -> List[TaskError]:
        return [r for r in self.results if isinstance(r, TaskError)]

    @property
    def ok(self) -> bool:
        return not self.errors

    def merged_snapshot(self) -> dict:
        """Task-order merge of every per-task metrics snapshot."""
        return merge_snapshots(self.snapshots)

    def raise_first_error(self) -> None:
        """Raise if any task failed (for callers without partial-failure
        handling, e.g. the plain sweeps)."""
        errors = self.errors
        if errors:
            first = errors[0]
            raise CampaignFailedError(
                f"{len(errors)} campaign task(s) failed; first: "
                f"task {first.index} [{self.tasks[first.index].label}] "
                f"{first.error_type}: {first.message}")


SpecsInput = Iterable[Union[RunSpec, Tuple[str, RunSpec]]]


def campaign_tasks(specs: SpecsInput) -> List[CampaignTask]:
    """Normalise an iterable of specs / ``(label, spec)`` pairs."""
    tasks = []
    for item in specs:
        if isinstance(item, RunSpec):
            label, spec = item.digest(), item
        else:
            label, spec = item
        tasks.append(CampaignTask(label=label, spec=spec,
                                  key=store_key(spec)))
    return tasks


def _valid_payload(payload: Any) -> bool:
    return (isinstance(payload, dict)
            and "result" in payload and "snapshot" in payload)


def run_campaign(specs: SpecsInput,
                 name: str = "campaign",
                 store: Optional[ResultStore] = None,
                 jobs: int = 1,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 task_timeout: Optional[float] = None,
                 chunk_size: Optional[int] = None,
                 resume: bool = False,
                 state_path: Optional[str] = None,
                 metrics=NULL_REGISTRY,
                 sleep: Callable[[float], None] = time.sleep,
                 dispatch: Union[str, DispatchBackend] = "pool",
                 progress: Optional[Callable[[dict], None]] = None
                 ) -> CampaignResult:
    """Run a campaign store-first with streaming commits and retries.

    Without a ``store`` this degrades to a deterministic retrying sweep
    (no persistence, no state file) — the mode the thin
    :mod:`repro.runner.sweep` wrappers use.  With one, every completed
    task is committed and checkpointed as it finishes, so a SIGKILL
    loses at most the in-flight tasks; ``resume=True`` is required to
    continue a campaign whose state file says it never finished (so an
    accidental re-launch cannot silently double-run a half-done
    campaign).

    ``dispatch`` selects the streaming backend: ``"pool"`` (one
    persistent process pool, the default), ``"multipool"``
    (work-stealing pools), ``"remote-stub"`` (subprocess hosts over
    JSONL pipes), or a ready-made
    :class:`~repro.runner.backends.DispatchBackend` instance, which
    the caller keeps ownership of.  Results, aggregates and the merged
    metrics snapshot are byte-identical across all of them and across
    every ``jobs`` value.  ``chunk_size`` is retained for backward
    compatibility and ignored: commits stream per task now.

    ``progress`` is an optional callback receiving small structured
    event dicts as the campaign advances — ``{"kind": "plan"}`` after
    store consultation, ``{"kind": "task"}`` per committed task,
    ``{"kind": "retry"}`` per re-dispatch, ``{"kind": "task_failed"}``
    per exhausted task and ``{"kind": "finished"}`` at the end.  The
    HTTP service streams these to SSE subscribers; ``None`` costs
    nothing.  Callbacks run on the engine thread in commit order, so a
    recording observer sees the exact sequence results landed in.
    """
    del chunk_size  # legacy knob: streaming commits replaced chunks

    def _notify(event: dict) -> None:
        if progress is not None:
            progress(event)

    tasks = campaign_tasks(specs)
    total = len(tasks)
    metrics.counter("campaign.tasks").inc(total)
    if not tasks:
        # A zero-task campaign is complete by definition: nothing to
        # consult, dispatch, or checkpoint — and no state file, so a
        # later non-empty campaign cannot trip over a stale one.
        return CampaignResult(name=name, tasks=[], results=[],
                              snapshots=[])
    results: List[Any] = [None] * total
    snapshots: List[dict] = [empty_snapshot() for _ in range(total)]

    # -- store consultation (the resume path is exactly this) ----------
    cached: Dict[str, Any] = {}
    if store is not None:
        cached = store.get_many([task.key for task in tasks])
    pending: List[int] = []
    done: set = set()
    hits = 0
    for index, task in enumerate(tasks):
        payload = cached.get(task.key)
        if payload is not None and _valid_payload(payload):
            results[index] = payload["result"]
            snapshots[index] = payload["snapshot"]
            done.add(index)
            hits += 1
        else:
            pending.append(index)
    misses = len(pending)
    _notify({"kind": "plan", "total": total, "hits": hits,
             "misses": misses})

    # -- checkpoint state ----------------------------------------------
    state: Optional[CampaignState] = None
    if store is not None:
        cid = campaign_id(task.key for task in tasks)
        if state_path is None:
            state_path = os.path.join(store.campaign_dir, cid + ".json")
        existing = CampaignState.load(state_path)
        if existing is not None and existing.campaign_id == cid \
                and existing.status == "running" and not resume:
            raise InterruptedCampaignError(
                f"campaign {cid} has an unfinished checkpoint at "
                f"{state_path} ({existing.completed}/{existing.total} "
                f"done); pass resume=True / --resume to continue it")
        state = CampaignState(campaign_id=cid, name=name, total=total,
                              completed=hits)
        state.save(state_path)

    def _checkpoint() -> None:
        if state is not None:
            state.completed = len(done)
            state.save(state_path)

    # -- dispatch misses through a streaming backend -------------------
    # Each completion commits (store + checkpoint) the moment it
    # arrives; failed tasks re-enter the live queue with per-task
    # exponential backoff instead of waiting for a retry round.
    failures: Dict[int, TaskError] = {}
    attempts: Dict[int, int] = {index: 0 for index in pending}
    retried = 0
    owns_backend = not isinstance(dispatch, DispatchBackend)
    backend = make_backend(dispatch, jobs=jobs, metrics=metrics)
    metrics.counter(f"dispatch.backend.{backend.name}").inc()

    item_ids = itertools.count()
    item_members: Dict[int, List[int]] = {}

    def _commit(index: int, result: Any, snapshot: dict) -> None:
        results[index] = result
        snapshots[index] = snapshot
        done.add(index)
        _notify({"kind": "task", "index": index,
                 "label": tasks[index].label,
                 "completed": len(done), "total": total})

    def _payload(index: int) -> dict:
        return {"result": results[index], "snapshot": snapshots[index]}

    def _submit_spec(index: int) -> None:
        item = WorkItem(item_id=next(item_ids), kind="spec",
                        spec=tasks[index].spec.to_dict(),
                        timeout=task_timeout,
                        affinity=tasks[index].key)
        item_members[item.item_id] = [index]
        metrics.counter("campaign.dispatched").inc()
        backend.submit(item)

    def _submit_batch(group: List[int]) -> None:
        # Payload dedup: the whole replicate group ships one spec dict
        # plus its seed list — one kernel execution in the worker.
        item = WorkItem(item_id=next(item_ids), kind="batch",
                        spec=tasks[group[0]].spec.to_dict(),
                        seeds=[tasks[i].spec.cluster.seed for i in group],
                        timeout=task_timeout,
                        affinity=tasks[group[0]].key)
        item_members[item.item_id] = list(group)
        metrics.counter("campaign.dispatched").inc(len(group))
        metrics.counter("campaign.batches").inc()
        backend.submit(item)

    def _register_failure(members: List[int],
                          error: TaskError) -> List[int]:
        """Book one failed attempt per member; return who retries."""
        retryable = []
        for index in members:
            attempts[index] += 1
            metrics.counter("campaign.task_errors").inc()
            if error.timed_out:
                metrics.counter("campaign.timeouts").inc()
            if attempts[index] <= retries:
                retryable.append(index)
            else:
                failures[index] = replace(error, index=index)
        return retryable

    try:
        # Vectorized Monte Carlo misses dispatch as whole replicate
        # batches: one work item (and one kernel execution) per group
        # of specs identical up to cluster.seed.
        groups = _replicate_groups(tasks, pending)
        grouped = {index for group in groups for index in group}
        for group in groups:
            _submit_batch(group)
        for index in pending:
            if index not in grouped:
                _submit_spec(index)

        for completion in backend.as_completed():
            members = item_members.pop(completion.item.item_id)
            if completion.error is None:
                if completion.item.kind == "batch":
                    for index, (result, snapshot) in zip(
                            members, completion.value):
                        _commit(index, result, snapshot)
                    if store is not None:
                        store.put_many((tasks[index].key, _payload(index))
                                       for index in members)
                else:
                    index = members[0]
                    result, snapshot = completion.value
                    _commit(index, result, snapshot)
                    if store is not None:
                        store.put(tasks[index].key, _payload(index))
                _checkpoint()
                continue
            # Failure: surviving attempts re-enter the live queue.  A
            # failed replicate batch falls back to per-task dispatch,
            # so one poisoned seed cannot fail the whole batch twice.
            retryable = _register_failure(members, completion.error)
            if retryable:
                retried += len(retryable)
                metrics.counter("campaign.retries").inc(len(retryable))
                sleep(min(backoff * (2 ** (attempts[retryable[0]] - 1)),
                          max_backoff))
                for index in retryable:
                    _notify({"kind": "retry", "index": index,
                             "attempt": attempts[index]})
                    _submit_spec(index)
    finally:
        if owns_backend:
            backend.close()

    # -- finalise ------------------------------------------------------
    for index in sorted(failures):
        results[index] = failures[index]
        metrics.counter("campaign.failed").inc()
        error = failures[index]
        _notify({"kind": "task_failed", "index": index,
                 "label": tasks[index].label,
                 "error_type": error.error_type,
                 "message": error.message,
                 "timed_out": error.timed_out})
    if state is not None:
        state.failed = len(failures)
        state.status = "failed" if failures else "completed"
        _checkpoint()
    _notify({"kind": "finished", "completed": len(done),
             "failed": len(failures), "hits": hits, "misses": misses,
             "retried": retried, "total": total})
    return CampaignResult(name=name, tasks=tasks, results=results,
                          snapshots=snapshots, hits=hits, misses=misses,
                          retried=retried)


__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_MAX_BACKOFF",
    "DEFAULT_RETRIES",
    "CampaignFailedError",
    "CampaignResult",
    "CampaignTask",
    "InterruptedCampaignError",
    "TaskTimeout",
    "campaign_tasks",
    "execute_batch_task",
    "execute_spec_task",
    "run_campaign",
]
