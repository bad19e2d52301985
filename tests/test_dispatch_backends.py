"""Dispatch backend conformance, work-stealing and host fault model.

Every backend behind :func:`repro.campaign.run_campaign` must honour
one contract: results merge in task order, a failing task becomes a
structured :class:`TaskError` in its slot, per-task timeouts hold in
the worker, and the merged snapshot is **byte-identical** to the
serial ``jobs=1`` reference.  The conformance class pins that contract
over all of :data:`DISPATCH_BACKENDS`.

The fault-model tests then go after what distinguishes the remote
stub: a killed host's in-flight work re-enters the queue
(``dispatch.worker_restarts``), a *stopped* host — process alive,
heartbeats silent — is detected through the heartbeat monitor, and an
item that keeps killing hosts dead-letters instead of looping.  The
local pool's workers, in turn, must not outlive a SIGKILLed campaign.
"""

import base64
import json
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import result_document, run_campaign, validation_campaign
from repro.obs import MetricsRegistry, render_json
from repro.runner.backends import (
    DISPATCH_BACKENDS,
    WORK_KINDS,
    LocalPoolBackend,
    RemoteStubBackend,
    TaskError,
    WorkItem,
    execute_work_item,
    make_backend,
)
from repro.runner.heartbeat import HeartbeatEmitter, HeartbeatMonitor
from repro.spec import ClusterSpec, ProtocolSpec, RunSpec
from repro.vec import NUMPY_AVAILABLE

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                 reason="numpy not installed")


def _spec(seed=0, n_rounds=8, reducer=None, backend="event"):
    return RunSpec(
        protocol=ProtocolSpec(n_nodes=4, penalty_threshold=3,
                              reward_threshold=50,
                              criticalities=(1, 1, 1, 1)),
        cluster=ClusterSpec(seed=seed),
        n_rounds=n_rounds,
        reducer=reducer,
        backend=backend,
    )


def _failing_spec(seed=0):
    return _spec(seed=seed, reducer="no.such.reducer")


def _labeled(specs):
    return [(f"task-{i}", s) for i, s in enumerate(specs)]


def _blob(result):
    return json.dumps([result.results, result.snapshots],
                      sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# Conformance: one contract, every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dispatch", DISPATCH_BACKENDS)
class TestBackendConformance:
    def test_matches_serial_reference_bytes(self, dispatch):
        specs = _labeled([_spec(seed=s) for s in range(3)])
        reference = run_campaign(specs, jobs=1, dispatch="pool")
        result = run_campaign(specs, jobs=2, dispatch=dispatch)
        assert _blob(result) == _blob(reference)

    def test_task_error_collected_in_slot(self, dispatch):
        result = run_campaign(
            [("ok", _spec(seed=1)), ("boom", _failing_spec())],
            jobs=2, dispatch=dispatch, retries=0, sleep=lambda _t: None)
        assert not isinstance(result.results[0], TaskError)
        error = result.results[1]
        assert isinstance(error, TaskError)
        assert error.index == 1
        assert error.error_type == "ValueError"
        assert "no.such.reducer" in error.message

    def test_timeout_propagates_into_worker(self, dispatch):
        slow = _spec(seed=3, n_rounds=200000)
        result = run_campaign(
            [("slow", slow), ("ok", _spec(seed=1))],
            jobs=2, dispatch=dispatch, retries=0, task_timeout=0.1,
            sleep=lambda _t: None)
        assert isinstance(result.results[0], TaskError)
        assert result.results[0].timed_out
        assert not isinstance(result.results[1], TaskError)


def test_jobs1_matches_across_backends():
    specs = _labeled([_spec(seed=s) for s in range(2)])
    blobs = {d: _blob(run_campaign(specs, jobs=1, dispatch=d))
             for d in DISPATCH_BACKENDS}
    assert len(set(blobs.values())) == 1


# ----------------------------------------------------------------------
# Factory and lifecycle
# ----------------------------------------------------------------------
class TestFactory:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            make_backend("mpi")

    def test_names_resolve(self):
        for name, cls in (("pool", LocalPoolBackend),
                          ("remote-stub", RemoteStubBackend)):
            backend = make_backend(name, jobs=1)
            assert isinstance(backend, cls)
            assert backend.name == name
            backend.close()

    def test_instance_passes_through(self):
        backend = LocalPoolBackend(jobs=1)
        assert make_backend(backend) is backend
        backend.close()

    def test_closed_backend_refuses_work(self):
        backend = LocalPoolBackend(jobs=1)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.submit(WorkItem(item_id=0, kind="spec",
                                    spec=_spec().to_dict()))

    def test_unknown_work_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown work kind"):
            execute_work_item("gradient", {})


# ----------------------------------------------------------------------
# Local pool lifecycle
# ----------------------------------------------------------------------
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Holds a jobs=2 pool with started workers, prints their pids, waits.
_HOLD_POOL = """
import json, multiprocessing, sys, time
from repro.runner.backends import LocalPoolBackend, WorkItem

backend = LocalPoolBackend(jobs=2)
for i in range(2):
    backend.submit(WorkItem(item_id=i, kind="spec",
                            spec=json.loads(sys.argv[1])))
list(backend.as_completed())
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(120)
"""


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_pool_workers_exit_when_campaign_is_killed():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_POOL, json.dumps(_spec().to_dict())],
        env=env, stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        ready, _, _ = select.select([holder.stdout], [], [], 60.0)
        assert ready, "the pool holder never reported its workers"
        workers = [int(pid) for pid in holder.stdout.readline().split()]
        assert len(workers) == 2
        holder.kill()
        holder.wait()
        assert _wait_until(
            lambda: not any(_alive(pid) for pid in workers), timeout=5.0), \
            f"pool workers outlived their campaign: {workers}"
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched handler through fork")
def test_dead_pool_worker_is_replaced(monkeypatch, tmp_path):
    """A worker that dies breaks its executor; the backend starts a
    fresh pool for the retries and the campaign still completes with
    the fault-free document."""
    definition = validation_campaign(repetitions=2)
    reference = render_json(result_document(
        definition, run_campaign(definition.labeled_specs, jobs=2)))
    marker = str(tmp_path / "died")
    original = WORK_KINDS["spec"]

    def die_once(spec_dict, seeds, timeout):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return original(spec_dict, seeds, timeout)
        os._exit(1)

    monkeypatch.setitem(WORK_KINDS, "spec", die_once)
    metrics = MetricsRegistry()
    result = run_campaign(definition.labeled_specs, jobs=2, metrics=metrics,
                          sleep=lambda _t: None)
    assert os.path.exists(marker)
    assert render_json(result_document(definition, result)) == reference
    assert metrics.snapshot()["counters"]["campaign.retries"] >= 1


# ----------------------------------------------------------------------
# Remote stub fault model
# ----------------------------------------------------------------------
def _consume_in_thread(backend):
    """Drive ``as_completed`` from a thread, collecting completions."""
    completions = []

    def run():
        for completion in backend.as_completed():
            completions.append(completion)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, completions


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _busy_host(backend):
    for host in list(backend._hosts):
        if host.inflight is not None and not host.dead:
            return host
    return None


class TestRemoteStubFaults:
    def test_killed_host_work_redispatched(self):
        metrics = MetricsRegistry()
        backend = RemoteStubBackend(hosts=2, metrics=metrics)
        try:
            for i in range(4):
                backend.submit(WorkItem(
                    item_id=i, kind="spec",
                    spec=_spec(seed=i, n_rounds=20000).to_dict()))
            thread, completions = _consume_in_thread(backend)
            assert _wait_until(lambda: _busy_host(backend) is not None)
            _busy_host(backend).proc.kill()
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            backend.close()
        assert len(completions) == 4
        assert all(c.error is None for c in completions)
        assert {c.item.item_id for c in completions} == set(range(4))
        counters = metrics.snapshot()["counters"]
        assert counters["dispatch.worker_restarts"] >= 1

    def test_stopped_host_detected_by_heartbeat_silence(self):
        # SIGSTOP leaves the process *alive* (poll() is None), so only
        # the heartbeat path can notice the host is gone.
        metrics = MetricsRegistry()
        backend = RemoteStubBackend(hosts=1, metrics=metrics,
                                    heartbeat_interval=0.05,
                                    heartbeat_timeout=0.5)
        stopped = []
        try:
            for i in range(2):
                backend.submit(WorkItem(
                    item_id=i, kind="spec",
                    spec=_spec(seed=i, n_rounds=20000).to_dict()))
            thread, completions = _consume_in_thread(backend)
            assert _wait_until(lambda: _busy_host(backend) is not None)
            host = _busy_host(backend)
            assert host.proc.poll() is None
            host.proc.send_signal(signal.SIGSTOP)
            stopped.append(host.proc)
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            for proc in stopped:
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
            backend.close()
        assert len(completions) == 2
        assert all(c.error is None for c in completions)
        counters = metrics.snapshot()["counters"]
        assert counters["dispatch.worker_restarts"] >= 1

    def test_pickle_result_message_becomes_task_error(self, monkeypatch):
        # The parent decodes result messages with the JSON-only store
        # codec: an `enc: pickle` payload fails its item unread.
        def no_unpickling(*_args, **_kwargs):
            raise AssertionError("the parent unpickled a payload")

        payload = base64.b64encode(pickle.dumps([[1, {}]])).decode("ascii")
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        backend = RemoteStubBackend(hosts=1)
        try:
            backend.submit(WorkItem(
                item_id=0, kind="spec",
                spec=_spec(seed=0, n_rounds=10_000_000).to_dict()))
            thread, completions = _consume_in_thread(backend)
            assert _wait_until(lambda: _busy_host(backend) is not None)
            backend._events.put((_busy_host(backend).serial, {
                "type": "result", "id": 0, "ok": True, "enc": "pickle",
                "payload": payload}))
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            backend.close()
        assert len(completions) == 1
        error = completions[0].error
        assert error is not None
        assert error.error_type == "ValueError"
        assert "unknown payload encoding 'pickle'" in error.message

    def test_host_killer_item_dead_letters(self):
        metrics = MetricsRegistry()
        backend = RemoteStubBackend(hosts=1, metrics=metrics,
                                    max_redispatches=0)
        try:
            backend.submit(WorkItem(
                item_id=0, kind="spec",
                spec=_spec(seed=0, n_rounds=10_000_000).to_dict()))
            thread, completions = _consume_in_thread(backend)
            assert _wait_until(lambda: _busy_host(backend) is not None)
            _busy_host(backend).proc.kill()
            thread.join(timeout=120)
            assert not thread.is_alive()
        finally:
            backend.close()
        assert len(completions) == 1
        error = completions[0].error
        assert error is not None
        assert error.error_type == "WorkerDied"


# ----------------------------------------------------------------------
# Heartbeat primitives
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_emitter_beats_independently_of_work(self):
        beats = []
        emitter = HeartbeatEmitter(lambda: beats.append(time.monotonic()),
                                   interval=0.02)
        emitter.start()
        assert beats, "first beat is synchronous"
        assert _wait_until(lambda: len(beats) >= 3, timeout=5.0)
        emitter.stop()

    def test_emitter_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            HeartbeatEmitter(lambda: None, interval=0)

    def test_monitor_staleness_is_clock_driven(self):
        now = [0.0]
        monitor = HeartbeatMonitor(timeout=1.0, clock=lambda: now[0])
        monitor.expect("h0")
        assert not monitor.stale("h0")
        now[0] = 1.5
        assert monitor.stale("h0")
        monitor.beat("h0")
        assert not monitor.stale("h0")

    def test_monitor_unknown_and_forgotten_never_stale(self):
        now = [0.0]
        monitor = HeartbeatMonitor(timeout=1.0, clock=lambda: now[0])
        assert not monitor.stale("ghost")
        monitor.expect("h0")
        monitor.forget("h0")
        now[0] = 10.0
        assert not monitor.stale("h0")


# ----------------------------------------------------------------------
# Replicate-batch retry fallback
# ----------------------------------------------------------------------
@needs_numpy
def test_poisoned_batch_falls_back_to_per_task_dispatch(monkeypatch):
    """A seed-targeted fault fails the whole batch once; the engine
    then re-dispatches each replicate individually, so one poisoned
    seed costs one retry round, not the campaign."""
    poison_seed = 2
    original = WORK_KINDS["batch"]
    specs = _labeled([_spec(seed=s, backend="vectorized")
                      for s in range(4)])
    reference = run_campaign(specs, jobs=1)

    def poisoned(spec_dict, seeds, timeout):
        if seeds and poison_seed in seeds:
            raise ValueError(f"injected fault at seed {poison_seed}")
        return original(spec_dict, seeds, timeout)

    monkeypatch.setitem(WORK_KINDS, "batch", poisoned)

    metrics = MetricsRegistry()
    sleeps = []
    result = run_campaign(specs, jobs=1, metrics=metrics,
                          sleep=sleeps.append)
    assert result.ok
    assert _blob(result) == _blob(reference)
    counters = metrics.snapshot()["counters"]
    assert counters["campaign.batches"] == 1
    # one failed batch of 4 -> 4 individual re-dispatches
    assert counters["campaign.dispatched"] == 8
    assert counters["campaign.retries"] == 4
    assert sleeps == [0.25]
