"""Byte-for-byte CLI output contracts.

The experiment verbs were refactored onto declarative TableSpecs; the
goldens in tests/data/golden_cli/ were captured from the pre-refactor
CLI, so these tests pin the acceptance criterion: routing a verb
through the results pipeline changed nothing about its stdout, down to
the byte.  The results verb family is exercised over the checked-in
fixture document with the same golden discipline.
"""

import base64
import json
import os
import pickle

import pytest

from repro.cli import main
from repro.results.plots import MATPLOTLIB_AVAILABLE

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden_cli")
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "data", "results")
FIXTURE = os.path.join(RESULTS_DIR, "rare_events_reps2.doc.json")


def _pickled_document():
    """A ``/2`` document whose one payload is in the retired pickle
    encoding (no embedded tables, so rendering must decode it)."""
    payload = base64.b64encode(pickle.dumps({"passed": True}))
    return json.dumps({
        "schema": "repro-campaign-result/2", "campaign": "spec-file",
        "params": {"specs": 1}, "metrics": {},
        "tasks": [{"label": "x", "digest": "0" * 12, "key": "k",
                   "result": {"enc": "pickle",
                              "payload": payload.decode("ascii")}}]})


#: Malformed result documents and the message each one exits 2 with.
BAD_DOCUMENTS = [
    ("not json", "not valid JSON"),
    ('{"schema":"repro-campaign-result/2","tasks":5}',
     "'tasks' must be a list"),
    ('{"schema":"repro-campaign-result/2","tables":5}',
     "'tables' must be a list"),
    ('{"schema":"repro-campaign-result/2","params":5}',
     "'params' must be an object"),
    ('{"schema":"repro-campaign-result/2","tasks":[5]}',
     "task #0 must be an object"),
    (_pickled_document(), "unknown payload encoding 'pickle'"),
]


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


class TestExperimentVerbGoldens:
    @pytest.mark.parametrize("argv,name", [
        (["demo", "--seed", "1"], "demo.txt"),
        (["table2"], "table2.txt"),
        (["table4"], "table4.txt"),
        (["figure3"], "figure3.txt"),
        (["portability"], "portability.txt"),
        (["resilience"], "resilience.txt"),
        (["discrimination", "--reps", "2"], "discrimination.txt"),
        (["validate", "--reps", "1"], "validate.txt"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_stdout_is_byte_identical_to_pre_refactor(self, capsys,
                                                      argv, name):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden(name)


class TestResultsRenderCli:
    @pytest.mark.parametrize("fmt,name", [
        ("ascii", "golden.txt"),
        ("md", "golden.md"),
        ("markdown", "golden.md"),
        ("latex", "golden.tex"),
        ("tex", "golden.tex"),
        ("csv", "golden.csv"),
        ("json", "golden.json"),
    ])
    def test_render_document_matches_golden(self, capsys, fmt, name):
        assert main(["results", "render", FIXTURE, "--format", fmt]) == 0
        out = capsys.readouterr().out
        with open(os.path.join(RESULTS_DIR, name), "r",
                  encoding="utf-8") as fh:
            assert out == fh.read()

    def test_render_to_file(self, capsys, tmp_path):
        out_path = str(tmp_path / "tables.md")
        assert main(["results", "render", FIXTURE, "--format", "md",
                     "--out", out_path]) == 0
        assert "written to" in capsys.readouterr().out
        with open(os.path.join(RESULTS_DIR, "golden.md"),
                  encoding="utf-8") as fh:
            assert open(out_path, encoding="utf-8").read() == fh.read()

    def test_render_with_store_cache_is_stable(self, capsys, tmp_path):
        argv = ["results", "render", FIXTURE, "--format", "csv",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0          # warm: served from DerivedCache
        assert capsys.readouterr().out == cold

    def test_render_named_campaign_from_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "rare-events", "--reps", "2",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["results", "render", "rare-events", "--reps", "2",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert out == golden_results("golden.txt")

    def test_render_named_campaign_missing_results(self, capsys, tmp_path):
        assert main(["results", "render", "validate",
                     "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "store is missing" in err and "campaign run validate" in err

    def test_unknown_table_filter(self, capsys):
        assert main(["results", "render", FIXTURE,
                     "--table", "nonexistent"]) == 2
        assert "no table named" in capsys.readouterr().err

    def test_unreadable_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for body, needle in BAD_DOCUMENTS:
            bad.write_text(body)
            for argv in (["results", "render", str(bad)],
                         ["results", "diff", str(bad), FIXTURE]):
                assert main(argv) == 2, (body, argv)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and needle in err, \
                    (body, argv, err)


def golden_results(name):
    with open(os.path.join(RESULTS_DIR, name), "r",
              encoding="utf-8") as fh:
        return fh.read().rstrip("\n") + "\n"


class TestResultsDiffCli:
    def test_identical_documents_exit_zero(self, capsys):
        assert main(["results", "diff", FIXTURE, FIXTURE]) == 0
        assert "documents identical" in capsys.readouterr().out

    def test_diverging_documents_exit_one(self, capsys, tmp_path):
        with open(FIXTURE, encoding="utf-8") as fh:
            data = json.load(fh)
        data["params"]["seed"] = 7
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        assert main(["results", "diff", FIXTURE, str(other)]) == 1
        assert "param seed: 0 -> 7" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["results", "diff", FIXTURE,
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestResultsPlotCli:
    @pytest.mark.skipif(MATPLOTLIB_AVAILABLE,
                        reason="matplotlib installed")
    def test_missing_matplotlib_exits_two(self, capsys, tmp_path):
        assert main(["results", "plot", FIXTURE,
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "requires matplotlib" in err
        assert "results render" in err       # actionable alternative
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not MATPLOTLIB_AVAILABLE,
                        reason="matplotlib not installed")
    def test_plot_document_series(self, capsys, tmp_path):  # pragma: no cover
        assert main(["results", "plot", FIXTURE,
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "plot written to" in out
        assert any(p.suffix == ".png" for p in tmp_path.iterdir())
