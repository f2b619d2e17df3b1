"""The ``pressio bench`` harness: grids, artifacts, regression verdicts,
and the ``paired()`` timing primitive."""

import copy
import gc
import importlib.util
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from repro.obs import bench


@pytest.fixture(scope="module")
def grid_rows():
    return bench.run_grid(compressors=("sz",), datasets=("nyx",),
                          bounds=(1e-3,), dims=(12, 12, 12), reps=3)


class TestRunGrid:
    def test_one_row_per_configuration(self):
        rows = bench.run_grid(compressors=("sz", "zfp"), datasets=("nyx",),
                              bounds=(1e-3, 1e-2), dims=(10, 10, 10), reps=2)
        assert len(rows) == 4
        keys = {(r["compressor"], r["bound"]) for r in rows}
        assert keys == {("sz", 1e-3), ("sz", 1e-2),
                        ("zfp", 1e-3), ("zfp", 1e-2)}

    def test_row_schema_and_sane_values(self, grid_rows):
        (row,) = grid_rows
        assert row["compressor"] == "sz"
        assert row["dataset"] == "nyx"
        assert row["dims"] == [12, 12, 12]
        assert row["reps"] == 3
        for field in ("compress_ms", "decompress_ms"):
            stats = row[field]
            assert 0 < stats["min"] <= stats["median"] <= stats["max"]
            assert stats["p25"] <= stats["median"] <= stats["p90"]
        assert row["compression_ratio"] > 1.0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            bench.run_grid(compressors=("sz",), datasets=("not_a_dataset",),
                           bounds=(1e-3,), dims=(8, 8, 8), reps=1)


class TestArtifacts:
    def test_write_and_load_round_trip(self, grid_rows, tmp_path):
        path = bench.write_artifact(grid_rows, str(tmp_path), quick=True)
        assert os.path.basename(path).startswith("BENCH_")
        artifact = bench.load_artifact(path)
        assert artifact["schema"] == bench.SCHEMA
        assert artifact["quick"] is True
        assert artifact["configs"] == grid_rows
        assert "created_at" in artifact and "python" in artifact

    def test_find_previous_artifact_picks_latest_excluding_self(
            self, grid_rows, tmp_path):
        from datetime import datetime, timezone

        older = bench.write_artifact(
            grid_rows, str(tmp_path),
            timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc))
        newer = bench.write_artifact(
            grid_rows, str(tmp_path),
            timestamp=datetime(2026, 6, 1, tzinfo=timezone.utc))
        assert bench.find_previous_artifact(str(tmp_path)) == newer
        assert bench.find_previous_artifact(
            str(tmp_path), exclude=newer) == older
        assert bench.find_previous_artifact(str(tmp_path / "empty")) is None

    def test_load_rejects_foreign_schema(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema": "other/9", "configs": []}))
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            bench.load_artifact(str(bad))


def artifact_with(rows):
    return {"schema": bench.SCHEMA, "created_at": "t", "configs": rows}


def base_row(**overrides):
    row = {
        "compressor": "sz", "dataset": "nyx", "bound": 1e-3,
        "dims": [12, 12, 12], "reps": 3,
        "compress_ms": {"median": 10.0, "p25": 9.0, "p75": 11.0,
                        "p90": 12.0, "min": 8.0, "max": 13.0},
        "decompress_ms": {"median": 5.0, "p25": 4.0, "p75": 6.0,
                          "p90": 7.0, "min": 3.0, "max": 8.0},
        "compression_ratio": 20.0,
    }
    row.update(overrides)
    return row


class TestCompare:
    def test_identical_runs_pass(self):
        report = bench.compare(artifact_with([base_row()]),
                               artifact_with([base_row()]))
        assert report["verdict"] == "PASS"
        assert report["regressions"] == []
        (delta,) = report["deltas"]
        assert delta["status"] == "ok"
        assert delta["deltas_pct"]["compress_ms"] == pytest.approx(0.0)

    def test_median_time_regression_flagged_beyond_threshold(self):
        slow = copy.deepcopy(base_row())
        slow["compress_ms"]["median"] = 12.0  # +20% vs 10.0
        report = bench.compare(artifact_with([slow]),
                               artifact_with([base_row()]),
                               threshold_pct=15.0)
        assert report["verdict"] == "REGRESSION"
        (reg,) = report["regressions"]
        assert reg["failed"] == ["compress_ms +20.0%"]

    def test_within_threshold_passes(self):
        slightly = copy.deepcopy(base_row())
        slightly["compress_ms"]["median"] = 11.0  # +10%
        report = bench.compare(artifact_with([slightly]),
                               artifact_with([base_row()]),
                               threshold_pct=15.0)
        assert report["verdict"] == "PASS"

    def test_speedups_never_flag(self):
        fast = copy.deepcopy(base_row())
        fast["compress_ms"]["median"] = 1.0
        fast["decompress_ms"]["median"] = 1.0
        report = bench.compare(artifact_with([fast]),
                               artifact_with([base_row()]))
        assert report["verdict"] == "PASS"

    def test_ratio_loss_flagged(self):
        worse = base_row(compression_ratio=10.0)  # -50%
        report = bench.compare(artifact_with([worse]),
                               artifact_with([base_row()]),
                               threshold_pct=15.0)
        assert report["verdict"] == "REGRESSION"
        assert "compression_ratio" in report["regressions"][0]["failed"][0]

    def test_ratio_gain_passes(self):
        better = base_row(compression_ratio=40.0)
        report = bench.compare(artifact_with([better]),
                               artifact_with([base_row()]))
        assert report["verdict"] == "PASS"

    def test_new_and_missing_configs_reported_not_failed(self):
        extra = base_row(compressor="zfp")
        report = bench.compare(artifact_with([base_row(), extra]),
                               artifact_with([base_row(
                                   dataset="scale_letkf"), base_row()]))
        statuses = sorted(d["status"] for d in report["deltas"])
        assert statuses == ["missing", "new", "ok"]
        assert report["verdict"] == "PASS"

    def test_format_comparison_prints_verdict_and_deltas(self):
        slow = copy.deepcopy(base_row())
        slow["compress_ms"]["median"] = 20.0
        report = bench.compare(artifact_with([slow]),
                               artifact_with([base_row()]))
        text = bench.format_comparison(report)
        assert "verdict: REGRESSION" in text
        assert "+100.0%" in text
        assert "threshold: 15%" in text


class TestCli:
    def run(self, args):
        return bench.run_bench(args)

    def test_first_run_writes_artifact_and_becomes_baseline(
            self, tmp_path, capsys):
        rc = self.run(["--quick", "--output-dir", str(tmp_path),
                       "--reps", "1", "--dims", "8,8,8",
                       "--compressors", "sz", "--bounds", "1e-3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "becomes the baseline" in out
        artifacts = [f for f in os.listdir(tmp_path)
                     if f.startswith("BENCH_")]
        assert len(artifacts) == 1

    def test_second_run_compares_and_passes(self, tmp_path, capsys):
        args = ["--output-dir", str(tmp_path), "--reps", "2",
                "--dims", "8,8,8", "--compressors", "sz",
                "--datasets", "nyx", "--bounds", "1e-3",
                "--threshold", "10000", "--fail-on-regress"]
        assert self.run(args) == 0
        import time

        time.sleep(1.1)  # distinct artifact timestamp (1s resolution)
        assert self.run(args) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "comparing against" in out

    def test_regression_against_doctored_baseline_fails(
            self, tmp_path, capsys):
        rows = bench.run_grid(compressors=("sz",), datasets=("nyx",),
                              bounds=(1e-3,), dims=(8, 8, 8), reps=2)
        doctored = copy.deepcopy(rows)
        for row in doctored:
            row["compress_ms"] = {k: v / 1000.0
                                  for k, v in row["compress_ms"].items()}
        from datetime import datetime, timezone

        baseline = bench.write_artifact(
            doctored, str(tmp_path),
            timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc))
        rc = self.run(["--output-dir", str(tmp_path), "--reps", "2",
                       "--dims", "8,8,8", "--compressors", "sz",
                       "--datasets", "nyx", "--bounds", "1e-3",
                       "--baseline", baseline, "--fail-on-regress"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out

    def test_missing_baseline_file_errors(self, tmp_path, capsys):
        rc = self.run(["--output-dir", str(tmp_path), "--reps", "1",
                       "--dims", "8,8,8", "--compressors", "sz",
                       "--datasets", "nyx", "--bounds", "1e-3",
                       "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2


class TestArtifactProvenance:
    """Satellite of the profiling PR: artifacts carry git SHA and
    hot-sentinel state so runs are joinable by commit and a run taken
    with an observer active is visibly tainted."""

    def test_header_records_git_sha(self, grid_rows, tmp_path):
        path = bench.write_artifact(grid_rows, str(tmp_path))
        artifact = bench.load_artifact(path)
        assert "git_sha" in artifact
        sha = artifact["git_sha"]
        assert sha is None or (isinstance(sha, str) and len(sha) == 40)

    def test_header_records_hot_sentinel_off(self, grid_rows, tmp_path):
        artifact = bench.load_artifact(
            bench.write_artifact(grid_rows, str(tmp_path)))
        assert artifact["hot_sentinel"] is False

    def test_header_flags_active_observer(self, grid_rows, tmp_path):
        from repro.trace import disable_tracing, enable_tracing
        from repro.trace.context import TraceContext

        enable_tracing(TraceContext())
        try:
            artifact = bench.load_artifact(
                bench.write_artifact(grid_rows, str(tmp_path)))
        finally:
            disable_tracing()
        assert artifact["hot_sentinel"] is True


class TestProfileMode:
    def test_profile_dir_captures_one_profile_per_config(self, tmp_path):
        from repro.profile import load_profile

        profile_dir = str(tmp_path / "profiles")
        rows = bench.run_grid(compressors=("sz",), datasets=("nyx",),
                              bounds=(1e-3,), dims=(10, 10, 10), reps=1,
                              profile_dir=profile_dir)
        (row,) = rows
        assert row["profile"] == "PROFILE_sz_nyx_0.001.json"
        profile = load_profile(os.path.join(profile_dir, row["profile"]))
        assert profile["meta"] == {"compressor": "sz", "dataset": "nyx",
                                   "bound": 1e-3}
        assert any("sz:" in r["path"] for r in profile["stages"])
        folded = os.path.join(profile_dir, "PROFILE_sz_nyx_0.001.folded")
        assert open(folded).read().strip()

    def test_cli_profile_flag_writes_profiles(self, tmp_path, capsys):
        rc = bench.run_bench(
            ["--output-dir", str(tmp_path), "--reps", "1",
             "--dims", "8,8,8", "--compressors", "sz",
             "--datasets", "nyx", "--bounds", "1e-3", "--profile",
             "--no-compare"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile(s)" in out
        assert os.path.isdir(tmp_path / "profiles")

    def test_regression_gate_prints_stage_attribution(
            self, tmp_path, capsys):
        # build a doctored baseline (1000x faster) carrying a baseline
        # profile with one stage much cheaper: the gate must fire AND
        # name a stage
        from datetime import datetime, timezone

        args = ["--output-dir", str(tmp_path), "--reps", "1",
                "--dims", "8,8,8", "--compressors", "sz",
                "--datasets", "nyx", "--bounds", "1e-3", "--profile",
                "--no-compare"]
        assert bench.run_bench(args) == 0
        current = bench.load_artifact(
            bench.find_previous_artifact(str(tmp_path)))
        doctored = copy.deepcopy(current["configs"])
        for row in doctored:
            row["compress_ms"] = {k: v / 1000.0
                                  for k, v in row["compress_ms"].items()}
        baseline = bench.write_artifact(
            doctored, str(tmp_path / "base"),
            timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc))
        capsys.readouterr()
        rc = bench.run_bench(
            ["--output-dir", str(tmp_path), "--reps", "1",
             "--dims", "8,8,8", "--compressors", "sz",
             "--datasets", "nyx", "--bounds", "1e-3", "--profile",
             "--baseline", baseline, "--fail-on-regress"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert "stage attribution" in out
        assert "sz:" in out  # some stage is named

    def test_attribution_uses_diff_when_baseline_profile_exists(
            self, tmp_path, capsys):
        import json as _json

        from repro.profile import load_profile, write_profile

        profile_dir = tmp_path / "profiles"
        rows = bench.run_grid(compressors=("sz",), datasets=("nyx",),
                              bounds=(1e-3,), dims=(8, 8, 8), reps=1,
                              profile_dir=str(profile_dir))
        path = bench.write_artifact(rows, str(tmp_path))
        # baseline: same artifact, but with compress medians shrunk and
        # a baseline profile whose entropy stage is 100x cheaper
        base_dir = tmp_path / "base"
        base_rows = copy.deepcopy(rows)
        for row in base_rows:
            row["compress_ms"] = {k: v / 1000.0
                                  for k, v in row["compress_ms"].items()}
        base_profile = load_profile(
            os.path.join(profile_dir, rows[0]["profile"]))
        for stage in base_profile["stages"]:
            if "sz:entropy" in stage["path"]:
                stage["exclusive_ns"] //= 100
        base_profile["wall_ns"] = sum(
            s["exclusive_ns"] for s in base_profile["stages"])
        os.makedirs(base_dir / "profiles")
        write_profile(base_profile,
                      str(base_dir / "profiles" / rows[0]["profile"]))
        from datetime import datetime, timezone

        baseline = bench.write_artifact(
            base_rows, str(base_dir),
            timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc))
        report = bench.compare(bench.load_artifact(path),
                               bench.load_artifact(baseline))
        assert report["verdict"] == "REGRESSION"
        assert report["regressions"][0]["baseline_profile"] == (
            rows[0]["profile"])
        bench._print_attribution(report["regressions"], str(tmp_path),
                                 baseline)
        out = capsys.readouterr().out
        assert "sz:entropy" in out
        assert "wall delta" in out


class TestHistoryMode:
    def run_history(self, tmp_path, hist, extra=()):
        return bench.run_bench([
            "--output-dir", str(tmp_path), "--reps", "1",
            "--dims", "8,8,8", "--compressors", "sz",
            "--datasets", "nyx", "--bounds", "1e-3", "--no-compare",
            "--history", "--history-file", str(hist), *extra])

    def test_each_run_appends_one_entry(self, tmp_path, capsys):
        hist = tmp_path / "hist.jsonl"
        assert self.run_history(tmp_path, hist) == 0
        assert self.run_history(tmp_path, hist) == 0
        from repro.obs import history

        entries = history.load_history(str(hist))
        assert len(entries) == 2
        (cfg,) = entries[-1]["configs"]
        assert cfg["compressor"] == "sz" and cfg["dataset"] == "nyx"
        assert cfg["compression_ratio"] > 1
        assert 0 < cfg["bound_margin"] <= 1 + 1e-9
        out = capsys.readouterr().out
        assert "quality drift: none detected" in out

    def test_planted_regression_flagged_naming_config(self, tmp_path,
                                                      capsys):
        """ISSUE acceptance: a deliberate regression in the newest entry
        is flagged with the configuration named."""
        from repro.obs import history

        hist = tmp_path / "hist.jsonl"
        # seed a history claiming impossible ratios, so the real run
        # reads as a deliberate quality regression against it
        for _ in range(4):
            history.append_history({
                "schema": history.HISTORY_SCHEMA, "created_at": "t",
                "git_sha": None, "quick": True,
                "configs": [{"compressor": "sz", "dataset": "nyx",
                             "bound": 1e-3, "dims": [8, 8, 8],
                             "compression_ratio": 10000.0,
                             "bound_margin": 0.001}],
            }, str(hist))
        rc = self.run_history(tmp_path, hist, extra=["--fail-on-drift"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DRIFT sz/nyx/bound=0.001/8x8x8" in out
        assert "compression_ratio" in out

    def test_quality_rows_carry_error_and_margin(self):
        (row,) = bench.run_grid(compressors=("sz",), datasets=("nyx",),
                                bounds=(1e-3,), dims=(8, 8, 8), reps=1)
        assert row["max_abs_error"] >= 0
        assert 0 <= row["bound_margin"] <= 1 + 1e-9


class _FakeClock:
    """A ``perf_counter`` stand-in whose time moves only when an arm runs."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def arm(self, durations):
        durations = iter(durations)

        def run(*_pair_index):
            self.now += next(durations)
        return run


def _benchmark_harness():
    # the benchmark's own copy of the method, loaded by path: perfbench/
    # imports nothing from the program and is not a package on sys.path
    path = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / \
        "harness.py"
    spec = importlib.util.spec_from_file_location("perfbench_harness", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


class TestPaired:
    def test_agrees_with_the_benchmark_harness(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(1.0, 2.0, 15)
        other = base * rng.uniform(0.9, 1.3, 15)
        ours_clock, theirs_clock = _FakeClock(), _FakeClock()
        ours = bench.paired(ours_clock.arm(base), ours_clock.arm(other),
                            pairs=15, clock=ours_clock)
        theirs = _benchmark_harness().paired(
            theirs_clock.arm(base), theirs_clock.arm(other),
            min_pairs=15, max_pairs=15, clock=theirs_clock)
        assert len(ours.order) == theirs.n == 15
        assert ours.median_ratio() == pytest.approx(theirs.median_ratio)
        assert ours.overhead_pct() == pytest.approx(theirs.overhead_pct)
        assert ours.order == theirs.order
        assert ours.samples[0] == pytest.approx(list(base))
        assert ours.samples[1] == pytest.approx(list(other))

    def test_three_arms_alternate_forward_and_reversed(self):
        calls = []
        arms = [lambda name=name: calls.append(name) for name in "xyz"]
        run = bench.paired(*arms, pairs=4)
        assert calls == list("xyz" "zyx" "xyz" "zyx")
        assert run.order == ["abc", "cba", "abc", "cba"]
        assert [len(samples) for samples in run.samples] == [4, 4, 4]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_off_while_timing_then_restored(self, enabled):
        seen = []
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            bench.paired(lambda: seen.append(gc.isenabled()), pairs=2)
            assert gc.isenabled() is enabled
            with pytest.raises(ZeroDivisionError):
                bench.paired(lambda: 1 / 0, pairs=1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False, False]
