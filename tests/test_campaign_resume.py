"""Kill/resume smoke: SIGKILL a campaign mid-flight, resume, same bytes.

Launches ``repro-diag campaign run`` as a real subprocess and SIGKILLs
it as soon as the store's index holds its first committed result, so
the kill always lands mid-campaign.  The campaign record then reads
``running``, a plain re-run refuses with exit 3, and ``--resume``
completes it into ``--out`` and metrics documents byte-identical to an
uninterrupted reference run.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

from repro.store import ResultStore

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_cli_env(), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


def _holds_an_entry(store):
    """Whether the store's index lists a result (a read-only probe)."""
    uri = "file:" + os.path.join(store, "index.sqlite") + "?mode=ro"
    try:
        db = sqlite3.connect(uri, uri=True)
    except sqlite3.OperationalError:
        return False  # not created yet
    try:
        return db.execute("SELECT COUNT(*) FROM entries").fetchone()[0] > 0
    except sqlite3.OperationalError:
        return False  # no table yet, or the writer holds the lock
    finally:
        db.close()


def _kill_after_first_commit(victim, store, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not _holds_an_entry(store):
        assert victim.poll() is None, "campaign exited before a commit"
        assert time.monotonic() < deadline, "no result committed in time"
        time.sleep(0.01)
    victim.send_signal(signal.SIGKILL)
    victim.wait()


def test_sigkill_resume_is_byte_identical(tmp_path):
    store = str(tmp_path / "store")
    killed_out = str(tmp_path / "killed.json")
    killed_metrics = str(tmp_path / "killed_metrics.json")
    ref_out = str(tmp_path / "ref.json")
    ref_metrics = str(tmp_path / "ref_metrics.json")
    campaign = ["campaign", "run", "validate", "--reps", "5"]

    # Uninterrupted reference: no store, serial.
    _run_cli([*campaign, "--no-store", "--out", ref_out,
              "--metrics-out", ref_metrics])
    with open(ref_out, "rb") as fh:
        ref_bytes = fh.read()
    total = len(json.loads(ref_bytes)["tasks"])

    # Start the same campaign against a store and SIGKILL it once its
    # first result is committed.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *campaign,
         "--store", store, "--jobs", "2",
         "--out", killed_out, "--metrics-out", killed_metrics],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _kill_after_first_commit(victim, store)

    # The record still reads running, so a plain re-run refuses...
    with ResultStore(store) as opened:
        [record] = opened.campaigns()
    assert record["status"] == "running"
    assert 0 < record["done"] < record["total"] == total
    refused = _run_cli([*campaign, "--store", store], check=False)
    assert refused.returncode == 3
    assert "--resume" in refused.stderr

    # ...and --resume completes it from the store.
    resumed = _run_cli([*campaign, "--store", store, "--resume",
                        "--jobs", "2", "--out", killed_out,
                        "--metrics-out", killed_metrics])
    assert "all passed: True" in resumed.stdout

    with open(killed_out, "rb") as fh:
        resumed_bytes = fh.read()
    assert resumed_bytes == ref_bytes
    with open(ref_metrics, "rb") as fh:
        ref_m = fh.read()
    with open(killed_metrics, "rb") as fh:
        resumed_m = fh.read()
    assert resumed_m == ref_m

    # The record now reads completed, and a warm re-run is all hits.
    status = _run_cli(["campaign", "status", "--store", store])
    assert "completed" in status.stdout
    assert f" {total}/{total} " in status.stdout
    warm = _run_cli([*campaign, "--store", store, "--out", killed_out])
    assert f"{total} task(s): {total} cached" in warm.stdout
    assert not os.path.exists(os.path.join(store, "campaigns"))
