"""``pressio bench --serve``: the committed overhead-comparison artifact.

Two layers: the harness itself (schema, paired statistics, artifact
writing) exercised with a tiny live run, and the committed artifact in
``benchmarks/`` — which is the PR's acceptance evidence that the
daemon's zero-copy handoff beats the paper's 17.5% spawn+copy
baseline — checked for schema and verdict.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs.bench import PairedRun
from repro.serve.bench import (
    PAPER_BASELINE_PCT,
    SERVE_SCHEMA,
    format_serve_report,
    run_serve_compare,
    summarize,
    write_serve_artifact,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "benchmarks" / "BENCH_serve_compare.json"


def _overhead_pct(local, served):
    """The estimator a row's ``overhead_pct`` comes from."""
    return PairedRun((local, served)).overhead_pct()


class TestPairedStatistics:
    def test_median_of_per_pair_ratios(self):
        local = [1.0, 1.0, 1.0]
        served = [1.10, 1.20, 1.30]
        assert _overhead_pct(local, served) == pytest.approx(20.0)

    def test_drift_epochs_cancel(self):
        # a 3x slowdown epoch hits pairs 2+3 on both sides: the ratio
        # stays 1.10 everywhere, so the estimate is unaffected
        local = [1.0, 3.0, 3.0]
        served = [1.1, 3.3, 3.3]
        assert _overhead_pct(local, served) == pytest.approx(10.0)

    def test_zero_local_pairs_are_dropped(self):
        assert _overhead_pct([0.0, 1.0], [5.0, 1.2]) == pytest.approx(20.0)
        assert _overhead_pct([], []) == 0.0


class TestSummarize:
    def _rows(self, overheads):
        return [{"overhead_pct": o, "inline_overhead_pct": o + 30.0}
                for o in overheads]

    def test_beats_baseline_iff_worst_below_paper(self):
        good = summarize(self._rows([5.0, 12.0, 9.0]))
        assert good["beats_baseline"] is True
        assert good["worst_overhead_pct"] == 12.0
        assert good["median_overhead_pct"] == 9.0
        assert good["paper_baseline_pct"] == PAPER_BASELINE_PCT
        bad = summarize(self._rows([5.0, 18.0]))
        assert bad["beats_baseline"] is False

    def test_inline_column_is_secondary(self):
        s = summarize(self._rows([4.0, 6.0]))
        assert s["inline_median_overhead_pct"] == pytest.approx(35.0)


class TestLiveComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_serve_compare(
            compressors=("noop",), datasets=("nyx",),
            bounds=(1e-4,), dims=(8, 8, 8), pairs=3)

    def test_row_schema(self, rows):
        assert len(rows) == 1
        row = rows[0]
        assert row["compressor"] == "noop"
        assert row["dims"] == [8, 8, 8] and row["pairs"] == 3
        for col in ("local_ms", "served_shm_ms", "served_inline_ms"):
            assert set(row[col]) >= {"median", "p25", "p75"}
        assert isinstance(row["overhead_pct"], float)
        assert isinstance(row["inline_overhead_pct"], float)

    def test_artifact_write_and_format(self, rows, tmp_path):
        path = write_serve_artifact(rows, str(tmp_path / "cmp.json"))
        artifact = json.loads(pathlib.Path(path).read_text())
        assert artifact["schema"] == SERVE_SCHEMA
        assert artifact["summary"]["paper_baseline_pct"] == \
            PAPER_BASELINE_PCT
        assert artifact["configs"] == json.loads(
            json.dumps(rows))  # rows must be JSON-clean
        report = format_serve_report(rows)
        assert "paper external-launch baseline 17.5%" in report
        assert "noop" in report


class TestPairOrder:
    def test_order_alternates_on_odd_pairs(self, monkeypatch):
        """The three round trips are ``paired()``'s arms, in this order;
        the alternation itself is pinned in tests/obs/test_bench.py."""
        from repro.serve import bench

        calls: list[str] = []

        def local(plugin, data, template):
            calls.append("local")

        def served(client, arr, compressor, options):
            calls.append("shm" if client.use_shm else "inline")

        monkeypatch.setattr(bench, "_local_roundtrip", local)
        monkeypatch.setattr(bench, "_served_roundtrip", served)
        run_serve_compare(compressors=("noop",), datasets=("nyx",),
                          bounds=(1e-4,), dims=(4, 4, 4), pairs=3)
        forward = ["local", "shm", "inline"]
        # one warm-up triple, then even / odd / even pairs
        assert calls == (forward + forward + forward[::-1] + forward)


class TestCommittedArtifact:
    def test_artifact_exists_with_current_schema(self):
        assert ARTIFACT.exists(), \
            "benchmarks/BENCH_serve_compare.json is the PR's acceptance " \
            "evidence and must be committed"
        artifact = json.loads(ARTIFACT.read_text())
        assert artifact["schema"] == SERVE_SCHEMA
        assert artifact["summary"]["paper_baseline_pct"] == \
            PAPER_BASELINE_PCT
        assert len(artifact["configs"]) >= 4

    def test_committed_verdict_beats_the_paper_baseline(self):
        summary = json.loads(ARTIFACT.read_text())["summary"]
        assert summary["beats_baseline"] is True
        assert summary["worst_overhead_pct"] < PAPER_BASELINE_PCT
        # the summary is derived from the rows it ships with
        rows = json.loads(ARTIFACT.read_text())["configs"]
        assert summarize(rows)["worst_overhead_pct"] == \
            pytest.approx(summary["worst_overhead_pct"])
