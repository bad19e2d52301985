"""Tests for the repro-diag command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_runs(capsys):
    assert main(["demo", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "consistent health vector" in out
    assert "consistent across nodes: True" in out


def test_table2_output(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "| Automotive | SC    |" in out
    assert "197" in out and "40" in out
    assert "| Aerospace" in out and "17" in out


def test_table4_output(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Time to isolation" in out
    assert "Automotive" in out and "Aerospace" in out


def test_figure3_output(capsys):
    assert main(["figure3"]) == 0
    out = capsys.readouterr().out
    assert "P(correlate 2nd transient)" in out
    assert "R = 1e+06" in out


def test_validate_small_campaign(capsys):
    assert main(["validate", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "all passed: True" in out
    assert "clique-detection" in out


def test_portability_output(capsys):
    assert main(["portability"]) == 0
    out = capsys.readouterr().out
    assert "FlexRay" in out and "TT-Ethernet" in out
    assert "VIOLATED" not in out


def test_resilience_output(capsys):
    assert main(["resilience"]) == 0
    out = capsys.readouterr().out
    assert "Lemma 2 frontier" in out
    assert "s=0: b<=2" in out


def test_discrimination_output(capsys):
    assert main(["discrimination", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "penalty/reward" in out and "immediate" in out


def test_timeline_output(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "fault: crash-2 @ slot 2" in out
    assert "isolate node 2" in out


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro-diag {repro.__version__}"


def test_spec_demo_emits_valid_runspec(capsys):
    from repro.spec import RunSpec

    assert main(["spec", "demo"]) == 0
    spec = RunSpec.from_json(capsys.readouterr().out)
    assert spec.n_rounds > 0


def test_spec_validate_emits_campaign_array(capsys):
    import json

    from repro.spec import RunSpec

    assert main(["spec", "validate", "--reps", "1"]) == 0
    specs = json.loads(capsys.readouterr().out)
    assert len(specs) == 18
    assert all(RunSpec.from_dict(s).reducer for s in specs)


def test_spec_table2_emits_campaign_array(capsys):
    import json

    assert main(["spec", "table2"]) == 0
    specs = json.loads(capsys.readouterr().out)
    assert specs and all(s["reducer"] == "table2.penalty-budget"
                         for s in specs)


def test_run_from_file(capsys, tmp_path):
    main(["spec", "demo"])
    spec_json = capsys.readouterr().out
    path = tmp_path / "demo.json"
    path.write_text(spec_json)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 run(s)" in out
    assert "0 failed" in out


def test_run_from_stdin(capsys, monkeypatch):
    import io

    main(["spec", "demo"])
    spec_json = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(spec_json))
    assert main(["run", "-"]) == 0
    assert "1 run(s)" in capsys.readouterr().out


def test_run_campaign_parallel_with_metrics(capsys, tmp_path):
    import json

    main(["spec", "validate", "--reps", "1"])
    campaign = capsys.readouterr().out
    path = tmp_path / "campaign.json"
    path.write_text(campaign)
    metrics_path = tmp_path / "metrics.json"
    assert main(["run", str(path), "--jobs", "2",
                 "--metrics-out", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "18 run(s), 18 scored, 0 failed" in out
    report = json.loads(metrics_path.read_text())
    assert any(name.startswith("spec.run.")
               for name in report["metrics"]["counters"])


def test_run_from_stdin_accepts_campaign_array(capsys, monkeypatch):
    import io

    main(["spec", "table2"])
    campaign = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(campaign))
    assert main(["run", "-"]) == 0
    out = capsys.readouterr().out
    assert "run(s)" in out and "0 failed" in out


def test_run_rejects_mismatched_schema(capsys, monkeypatch):
    import io
    import json

    main(["spec", "demo"])
    spec = json.loads(capsys.readouterr().out)
    spec["spec"] = "repro-runspec/99"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    assert main(["run", "-"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "repro-runspec/99" in captured.err


def test_campaign_run_cold_then_warm(capsys, tmp_path):
    store = str(tmp_path / "store")
    args = ["campaign", "run", "validate", "--reps", "1",
            "--store", store]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "all passed: True" in cold
    assert "18 task(s): 0 cached, 18 executed" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "18 task(s): 18 cached, 0 executed" in warm


def test_campaign_out_documents_byte_identical(capsys, tmp_path):
    store = str(tmp_path / "store")
    cold_out = tmp_path / "cold.json"
    warm_out = tmp_path / "warm.json"
    assert main(["campaign", "run", "validate", "--reps", "1",
                 "--store", store, "--jobs", "2",
                 "--out", str(cold_out)]) == 0
    assert main(["campaign", "run", "validate", "--reps", "1",
                 "--store", store, "--out", str(warm_out)]) == 0
    capsys.readouterr()
    assert cold_out.read_bytes() == warm_out.read_bytes()


def test_campaign_run_from_spec_file(capsys, tmp_path):
    main(["spec", "table2"])
    path = tmp_path / "table2.json"
    path.write_text(capsys.readouterr().out)
    assert main(["campaign", "run", str(path), "--no-store"]) == 0
    out = capsys.readouterr().out
    assert "task(s):" in out and "0 failed" in out


def test_campaign_run_rejects_unknown_source(capsys):
    assert main(["campaign", "run", "figure9"]) == 2
    assert "neither a named campaign" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needle", [
    (["validate", "--reps", "0"], "has no tasks"),
    (["spec", "validate", "--reps", "0"], "has no tasks"),
    (["campaign", "run", "validate", "--nodes", "1", "--no-store"],
     "n_nodes must be >= 2"),
    (["campaign", "run", "rare-events", "--reps", "-2", "--no-store"],
     "has no tasks"),
    (["results", "render", "rare-events", "--reps", "0"], "has no tasks"),
    (["spec", "validate", "--reps", "1001"], "must be in 1..1000"),
    (["campaign", "run", "validate", "--nodes", "65", "--no-store"],
     "must be in 2..64"),
])
def test_bad_campaign_knobs_exit_2(capsys, monkeypatch, tmp_path, argv,
                                  needle):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and needle in captured.err
    assert "all passed" not in captured.out


def test_campaign_status_and_gc(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert main(["campaign", "run", "validate", "--reps", "1",
                 "--store", store]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert "18" in out
    assert main(["campaign", "gc", "--store", store,
                 "--max-entries", "4"]) == 0
    out = capsys.readouterr().out
    assert "evicted 14" in out
    assert main(["campaign", "status", "--store", store]) == 0
    assert "4 cached result(s)" in capsys.readouterr().out
