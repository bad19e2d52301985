"""Kill/resume smoke: SIGKILL a campaign mid-flight, resume, same bytes.

Launches ``repro-diag campaign run`` as a real subprocess, SIGKILLs it
while it is (most likely) mid-campaign, resumes with ``--resume`` and
asserts the final ``--out`` document and metrics report are
byte-identical to an uninterrupted reference run.  The assertion holds
on every interleaving: if the kill lands before any chunk committed the
resume simply re-runs everything; if it lands after completion the
resume is pure cache replay — determinism is what's under test, not
the race.
"""

import json
import os
import signal
import subprocess
import sys
import time

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


def _checkpoint_statuses(store):
    from repro.campaign import load_all_states

    return [state.status for state
            in load_all_states(os.path.join(store, "campaigns"))]


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

    # Start the same campaign against a store and SIGKILL it mid-flight.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *campaign,
         "--store", store, "--jobs", "2",
         "--out", killed_out, "--metrics-out", killed_metrics],
        env=_cli_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    time.sleep(0.9)
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait()

    # If the kill landed mid-campaign, a plain re-run must refuse...
    # "Mid-campaign" is read from the checkpoint, not from the exit
    # code: a SIGKILL that lands after the checkpoint reads completed
    # (while the CLI is still writing --out) leaves nothing to resume.
    interrupted = "running" in _checkpoint_statuses(store)
    if interrupted:
        refused = _run_cli([*campaign, "--store", store], check=False)
        assert refused.returncode == 3
        assert "--resume" in refused.stderr

    # ...and --resume must complete it from the checkpoint.
    resumed = _run_cli([*campaign, "--store", store, "--resume",
                        "--jobs", "2", "--out", killed_out,
                        "--metrics-out", killed_metrics])
    assert "all passed: True" in resumed.stdout

    with open(ref_out, "rb") as fh:
        ref_bytes = fh.read()
    with open(killed_out, "rb") as fh:
        resumed_bytes = fh.read()
    assert resumed_bytes == ref_bytes
    with open(ref_metrics, "rb") as fh:
        ref_m = fh.read()
    with open(killed_metrics, "rb") as fh:
        resumed_m = fh.read()
    assert resumed_m == ref_m

    # The checkpoint now reads completed, and a warm re-run is all hits.
    status = _run_cli(["campaign", "status", "--store", store])
    assert "completed" in status.stdout
    warm = _run_cli([*campaign, "--store", store, "--out", killed_out])
    total = json.loads(ref_bytes)["tasks"]
    assert f"{len(total)} task(s): {len(total)} cached" in warm.stdout
