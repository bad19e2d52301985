"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
rendered output is printed (run pytest with ``-s`` to see it inline)
and also written to ``benchmarks/results/<name>.txt`` so the
reproduction artefacts survive the run.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def emit(name: str, text: str) -> None:
    """Print a reproduction artefact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n")


def emit_json(name: str, payload: Any) -> None:
    """Publish a machine-readable artefact as ``<name>.json`` at the
    repository root (headline artefacts tracked in git, e.g.
    ``BENCH_simulator_throughput.json``).

    Sorted keys and a fixed indent keep the file stable under
    re-emission, so the perf trajectory is diffable across commits.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (REPO_ROOT / f"{name}.json").write_text(text, encoding="utf-8")
