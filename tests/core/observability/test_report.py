"""Perf-regression observatory tests (``repro report`` and its gating).

* committed-baseline-shaped history passes every gate (the CI happy
  path) and a synthetically slowed run fails with exit != 0;
* the three gate families behave per contract: boolean hard floors at
  any scale, ``X``/``X_floor`` margins against each run's *own* floor,
  and ``*_ms`` tolerance bands (loose for wall, tight for virtual)
  applied only to same-scale runs — medians, so a single outlier run
  inside the window does not trip the gate;
* durable-file hygiene: torn history lines are skipped not fatal,
  corrupt baseline files are ignored, ``write_atomic`` leaves no temp
  droppings, ``append_history`` appends one JSON line per document;
* the ``repro report [--check] [--out] [--markdown]`` CLI wiring.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.harness import HISTORY_NAME, append_history, write_atomic
from repro.cli import main
from repro.core.observability import (
    build_report,
    load_baselines,
    load_history,
    render_report,
)
from repro.core.observability.report import FAIL, OK, SKIP, repo_git_sha


def baseline(exp_id="ABL99", **overrides):
    document = {
        "exp_id": exp_id,
        "scale": "full",
        "git_sha": "f" * 40,
        "recorded_at_utc": "2026-08-08T00:00:00Z",
        "wall_ms": 100.0,
        "virtual_ms": 50.0,
        "speedup": 2.0,
        "speedup_floor": 1.5,
        "identical": True,
    }
    document.update(overrides)
    return document


def run(exp_id="ABL99", **overrides):
    """A history entry shaped like a healthy re-run of :func:`baseline`."""
    return baseline(exp_id, **overrides)


def gates_by_metric(report, exp_id="ABL99"):
    (section,) = [s for s in report.sections if s.exp_id == exp_id]
    return {gate.metric: gate for gate in section.gates}


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------
class TestGates:
    def test_healthy_window_has_no_regressions(self):
        report = build_report({"ABL99": baseline()}, [run(), run(), run()])
        assert report.regressions == []
        gates = gates_by_metric(report)
        assert gates["identical"].status == OK
        assert gates["speedup"].status == OK
        assert gates["wall_ms"].status == OK
        assert gates["virtual_ms"].status == OK

    def test_no_history_is_a_skip_not_a_failure(self):
        report = build_report({"ABL99": baseline()}, [])
        assert report.regressions == []
        gates = gates_by_metric(report)
        assert gates["(all)"].status == SKIP
        assert "no history runs" in gates["(all)"].detail

    def test_slowed_wall_run_fails_the_band(self):
        # 3x the baseline wall is far beyond the +50% band
        report = build_report(
            {"ABL99": baseline()}, [run(wall_ms=300.0)] * 3
        )
        gates = gates_by_metric(report)
        assert gates["wall_ms"].status == FAIL
        assert report.regressions

    def test_wall_inside_the_loose_band_passes(self):
        report = build_report(
            {"ABL99": baseline()}, [run(wall_ms=140.0)] * 3
        )
        assert gates_by_metric(report)["wall_ms"].status == OK

    def test_virtual_band_is_tight(self):
        # +4% drift on a deterministic bill is a regression...
        report = build_report(
            {"ABL99": baseline()}, [run(virtual_ms=52.0)] * 3
        )
        assert gates_by_metric(report)["virtual_ms"].status == FAIL
        # ...+1% is inside the 2% band
        report = build_report(
            {"ABL99": baseline()}, [run(virtual_ms=50.5)] * 3
        )
        assert gates_by_metric(report)["virtual_ms"].status == OK

    def test_wall_token_anywhere_gets_the_wall_band(self):
        # ABL14-style keys: "wall" is a token, not the prefix.  +40% is
        # inside the wall band but would fail the 2% virtual band.
        doc = baseline(cold_wall_ms=10.0, warm_wall_ms=2.0)
        report = build_report(
            {"ABL99": doc}, [run(cold_wall_ms=14.0, warm_wall_ms=2.8)] * 3
        )
        gates = gates_by_metric(report)
        assert gates["cold_wall_ms"].status == OK
        assert gates["warm_wall_ms"].status == OK
        # A "wall" substring inside another word is not a wall token.
        doc = baseline(firewall_ms=10.0)
        report = build_report({"ABL99": doc}, [run(firewall_ms=14.0)] * 3)
        assert gates_by_metric(report)["firewall_ms"].status == FAIL

    def test_median_shrugs_off_one_outlier(self):
        history = [run(), run(wall_ms=1000.0), run()]
        assert build_report({"ABL99": baseline()}, history).regressions == []

    def test_boolean_flip_is_a_hard_floor_at_any_scale(self):
        history = [run(), run(scale="quick", identical=False), run()]
        report = build_report({"ABL99": baseline()}, history)
        gates = gates_by_metric(report)
        assert gates["identical"].status == FAIL
        assert "hard floor" in gates["identical"].detail

    def test_floor_margin_uses_each_runs_own_floor(self):
        # quick-scale runs record a lower floor; 1.2x against a recorded
        # floor of 1.0 is a healthy margin even though the committed
        # full-scale floor is 1.5
        history = [
            run(scale="quick", speedup=1.2, speedup_floor=1.0)
        ] * 3
        report = build_report({"ABL99": baseline()}, history)
        assert gates_by_metric(report)["speedup"].status == OK

    def test_floor_breach_fails(self):
        history = [run(speedup=1.2)] * 3  # recorded floor stays 1.5
        report = build_report({"ABL99": baseline()}, history)
        gates = gates_by_metric(report)
        assert gates["speedup"].status == FAIL
        assert "margin" in gates["speedup"].detail

    def test_scale_mismatch_skips_bands_but_keeps_floors(self):
        history = [run(scale="quick", wall_ms=5000.0, virtual_ms=1.0)] * 3
        report = build_report({"ABL99": baseline()}, history)
        gates = gates_by_metric(report)
        assert gates["wall_ms"].status == SKIP
        assert gates["virtual_ms"].status == SKIP
        assert gates["identical"].status == OK
        assert gates["speedup"].status == OK
        assert report.regressions == []

    def test_dict_valued_wall_metrics_gate_per_subkey(self):
        base = baseline(wall_ms={"1": 100.0, "4": 30.0})
        healthy = run(wall_ms={"1": 90.0, "4": 31.0})
        slow4 = run(wall_ms={"1": 90.0, "4": 90.0})
        report = build_report({"ABL99": base}, [healthy, slow4, slow4])
        gates = gates_by_metric(report)
        assert gates["wall_ms[1]"].status == OK
        assert gates["wall_ms[4]"].status == FAIL

    def test_window_is_the_last_best_of_runs(self):
        # an ancient slow run falls outside the best-of-3 window
        history = [run(wall_ms=900.0)] + [run()] * 3
        assert build_report(
            {"ABL99": baseline()}, history, best_of=3
        ).regressions == []

    def test_history_only_experiments_are_reported(self):
        report = build_report({"ABL99": baseline()}, [run(exp_id="ABL7")])
        assert report.extra_exp_ids == ["ABL7"]


# ----------------------------------------------------------------------
# durable files
# ----------------------------------------------------------------------
class TestFiles:
    def test_load_history_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text(
            json.dumps(run()) + "\n" + '{"exp_id": "ABL99", "wall',
            encoding="utf-8",
        )
        entries, skipped = load_history(str(path))
        assert len(entries) == 1
        assert skipped == 1

    def test_load_history_skips_non_dict_lines(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text('[1, 2]\n{"no_exp_id": true}\n', encoding="utf-8")
        entries, skipped = load_history(str(path))
        assert entries == []
        assert skipped == 2

    def test_load_history_missing_file(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == ([], 0)

    def test_load_baselines_ignores_corrupt_files(self, tmp_path):
        (tmp_path / "BENCH_ABL99.json").write_text(
            json.dumps(baseline()), encoding="utf-8"
        )
        (tmp_path / "BENCH_BAD.json").write_text("{torn", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
        baselines = load_baselines(str(tmp_path))
        assert set(baselines) == {"ABL99"}

    def test_write_atomic_replaces_without_droppings(self, tmp_path):
        path = tmp_path / "latest.txt"
        write_atomic(str(path), "first\n")
        write_atomic(str(path), "second\n")
        assert path.read_text(encoding="utf-8") == "second\n"
        assert os.listdir(tmp_path) == ["latest.txt"]  # no temp files left

    def test_append_history_appends_one_line_per_document(self, tmp_path):
        docs = [run(), run(exp_id="ABL7")]
        path = append_history(str(tmp_path), docs)
        path = append_history(str(tmp_path), [run()])
        assert os.path.basename(path) == HISTORY_NAME
        entries, skipped = load_history(path)
        assert skipped == 0
        assert [e["exp_id"] for e in entries] == ["ABL99", "ABL7", "ABL99"]

    def test_repo_git_sha_in_this_checkout(self):
        sha = repo_git_sha()
        assert sha and len(sha) == 40


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_text_report_shape(self):
        report = build_report(
            {"ABL99": baseline()},
            [run(speedup=1.9), run(speedup=1.2), run(speedup=1.2)],
            skipped_lines=1,
        )
        rendered = render_report(report)
        assert "perf observatory" in rendered
        assert "1 torn line(s) skipped" in rendered
        assert "[FAIL] speedup" in rendered
        assert "trend speedup: 1.90 -> 1.20 -> 1.20" in rendered
        assert "REGRESSIONS: 1" in rendered

    def test_text_report_green_footer(self):
        report = build_report({"ABL99": baseline()}, [run()] * 3)
        assert "no regressions" in render_report(report)

    def test_markdown_report_is_a_table(self):
        report = build_report({"ABL99": baseline()}, [run()] * 3)
        rendered = render_report(report, markdown=True)
        assert "| experiment | metric | status | detail |" in rendered
        assert "**No regressions.**" in rendered
        bad = build_report({"ABL99": baseline()}, [run(identical=False)])
        assert "**1 regression(s).**" in render_report(bad, markdown=True)


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "BENCH_ABL99.json").write_text(
        json.dumps(baseline()), encoding="utf-8"
    )
    append_history(str(directory), [run(), run(), run()])
    return directory


class TestReportCli:
    def test_report_renders_and_passes(self, results_dir, capsys):
        assert main(["report", "--results", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "perf observatory" in out
        assert "no regressions" in out

    def test_check_passes_on_healthy_history(self, results_dir, capsys):
        assert (
            main(["report", "--results", str(results_dir), "--check"]) == 0
        )
        assert "perf check passed" in capsys.readouterr().err

    def test_check_fails_on_synthetically_slowed_run(
        self, results_dir, capsys
    ):
        # the committed baseline says 100ms wall; the last 3 runs say 300
        append_history(str(results_dir), [run(wall_ms=300.0)] * 3)
        assert (
            main(["report", "--results", str(results_dir), "--check"]) == 1
        )
        captured = capsys.readouterr()
        assert "perf check FAILED" in captured.err
        assert "[FAIL] wall_ms" in captured.out

    def test_out_writes_the_artifact(self, results_dir, tmp_path):
        artifact = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--results",
                    str(results_dir),
                    "--markdown",
                    "--out",
                    str(artifact),
                ]
            )
            == 0
        )
        assert "| experiment |" in artifact.read_text(encoding="utf-8")

    def test_separate_baselines_dir(self, results_dir, tmp_path, capsys):
        # CI copies the committed baselines aside before benches
        # overwrite them in the working tree
        saved = tmp_path / "saved"
        saved.mkdir()
        (saved / "BENCH_ABL99.json").write_text(
            json.dumps(baseline(wall_ms=10.0)), encoding="utf-8"
        )
        assert (
            main(
                [
                    "report",
                    "--results",
                    str(results_dir),
                    "--baselines",
                    str(saved),
                    "--check",
                ]
            )
            == 1
        )  # history medians (100ms) regress the saved 10ms baseline

    def test_no_baselines_is_a_loud_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no BENCH_"):
            main(["report", "--results", str(empty)])

    def test_profile_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["demo", "--profile"])
        assert args.profile is True
        args = build_parser().parse_args(["demo"])
        assert args.profile is None


# ----------------------------------------------------------------------
# the committed repository state (the CI happy path)
# ----------------------------------------------------------------------
class TestCommittedBaselines:
    RESULTS = os.path.join(
        os.path.dirname(
            os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            )
        ),
        "benchmarks",
        "results",
    )

    def test_committed_history_passes_the_check(self, capsys):
        """The seeded history must be green against the committed
        baselines — otherwise ``repro report --check`` (and the CI
        perf-watch job) would fail straight off a fresh clone."""
        if not os.path.isdir(self.RESULTS):  # pragma: no cover
            pytest.skip("no committed results directory")
        assert main(["report", "--results", self.RESULTS, "--check"]) == 0
        assert "perf check passed" in capsys.readouterr().err
