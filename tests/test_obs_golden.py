"""Golden-file and CLI-level tests for the observability reports.

``tests/data/golden_validate_metrics.json`` is the checked-in report
for ``repro-diag validate --reps 2 --metrics-out``.  Regenerating it
must be a conscious act: any protocol change that moves a counter
shows up here as a byte-level diff, which is the point — the merged
metrics of the validation campaign are part of the repo's behavioural
contract, like the trace goldens.  To regenerate after an intended
change::

    repro-diag validate --reps 2 --metrics-out tests/data/golden_validate_metrics.json
"""

import json
from pathlib import Path

import pytest

from repro.campaign import run_campaign, validation_campaign
from repro.cli import main
from repro.obs import REPORT_SCHEMA, load_report, render_json, run_report

GOLDEN = Path(__file__).parent / "data" / "golden_validate_metrics.json"


def fresh_report_text(jobs=1):
    defn = validation_campaign(repetitions=2)
    result = run_campaign(defn.labeled_specs, name=defn.name, jobs=jobs)
    result.raise_first_error()
    return render_json(run_report("validate", {"reps": 2},
                                  result.merged_snapshot()))


class TestGoldenReport:
    def test_fresh_run_matches_golden_byte_for_byte(self):
        assert fresh_report_text() == GOLDEN.read_text(encoding="utf-8")

    def test_parallel_run_matches_golden_too(self):
        assert fresh_report_text(jobs=4) == GOLDEN.read_text(encoding="utf-8")

    def test_golden_is_schema_tagged_and_normalised(self):
        report = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert report["schema"] == REPORT_SCHEMA
        assert report["params"] == {"reps": 2}
        # The file itself is in the canonical rendering (so a manual
        # edit that reorders keys fails here, not in CI's diff).
        assert GOLDEN.read_text(encoding="utf-8") == render_json(report)
        # Sanity: the campaign actually produced protocol activity.
        counters = report["metrics"]["counters"]
        assert counters["diag.analysis_rounds"] > 0
        assert counters["vote.hmaj_calls"] > 0


class TestCliReports:
    def test_validate_metrics_out_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["validate", "--reps", "2",
                     "--metrics-out", str(out)]) == 0
        assert f"metrics report written to {out}" in capsys.readouterr().out
        assert out.read_text(encoding="utf-8") == \
            GOLDEN.read_text(encoding="utf-8")

    def test_validate_jobs_do_not_change_report(self, tmp_path, capsys):
        paths = []
        for jobs in ("1", "2"):
            path = tmp_path / f"metrics-{jobs}.json"
            assert main(["validate", "--reps", "1", "--jobs", jobs,
                         "--metrics-out", str(path)]) == 0
            paths.append(path)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stats_subcommand_renders_and_writes(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", "--nodes", "4", "--rounds", "20",
                     "--scenario", "burst", "--timing",
                     "--metrics-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "bus.slots_total" in text
        assert "diag.matrix_epsilon_rows" in text
        assert "wall-clock phase timings" in text
        report = load_report(str(out))
        assert report["schema"] == REPORT_SCHEMA
        assert report["params"]["scenario"] == "burst"
        # Timings stay out of the written report: it must be diffable.
        assert "timings" not in report

    @pytest.mark.parametrize("scenario",
                             ["fault-free", "burst", "crash", "noise"])
    def test_stats_scenarios_all_run(self, scenario, capsys):
        assert main(["stats", "--rounds", "10",
                     "--scenario", scenario]) == 0
        assert "scenario=" + scenario in capsys.readouterr().out

    def test_stats_deterministic_across_runs(self, tmp_path, capsys):
        paths = []
        for i in range(2):
            path = tmp_path / f"stats-{i}.json"
            assert main(["stats", "--rounds", "15", "--scenario", "noise",
                         "--seed", "3", "--metrics-out", str(path)]) == 0
            paths.append(path)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_table2_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "table2.json"
        assert main(["table2", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        report = load_report(str(out))
        assert report["command"] == "table2"
        assert report["params"] == {"seed": 0}
        assert report["metrics"]["counters"]["diag.analysis_rounds"] > 0
