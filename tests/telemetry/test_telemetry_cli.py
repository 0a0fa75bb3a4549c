"""CLI surface of the self-telemetry layer: ``--trace`` on ``repro-io
experiment`` writes the one telemetry document, and the ``repro-io
telemetry`` summarizer renders it."""

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_chrome_trace
from repro.telemetry.metrics import METRICS_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def artifacts(tmp_path, capsys):
    """One traced experiment run and the summary of its document."""
    trace = tmp_path / "trace.json"
    store = tmp_path / "cache"
    code, out, _ = run_cli(
        capsys, "experiment", "C5", "--cache-dir", str(store), "--no-cache",
        "--trace", str(trace),
    )
    assert code == 0
    code, summary, _ = run_cli(capsys, "telemetry", str(trace))
    assert code == 0
    # The cached run lands its manifest in the store, not beside it.
    run_cli(capsys, "experiment", "C5", "--cache-dir", str(store))
    assert not (tmp_path / "manifest.json").exists()
    return {"trace": trace, "store": store, "out": out, "summary": summary}


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestExperimentTelemetryFlags:
    def test_trace_is_valid_chrome_json(self, artifacts):
        doc = load(artifacts["trace"])
        assert validate_chrome_trace(doc) == []
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "repro-io experiment" in names
        assert "Environment.run" in names
        assert "experiment_task" in names
        assert "process track(s)" in artifacts["out"]

    def test_metrics_table_printed(self, artifacts):
        summary = artifacts["summary"]
        assert "des.events.executed" in summary
        assert "runner.cache.miss" in summary
        assert "pfs.oss.rpcs" in summary

    def test_metrics_json_schema(self, artifacts):
        metrics = load(artifacts["trace"])["otherData"]["metrics"]
        assert metrics["schema"] == METRICS_SCHEMA
        assert metrics["metrics"]["des.runs"]["value"] >= 1

    def test_no_flags_no_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "C5", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "telemetry" not in out
        assert list(tmp_path.iterdir()) == []


class TestTelemetrySubcommand:
    def test_summarizes_trace(self, artifacts):
        # Span table, then the metrics and series sections, in that order.
        summary = artifacts["summary"]
        assert "span" in summary and "self ms" in summary
        assert "Environment.run" in summary
        assert (summary.index("self ms") < summary.index("metrics: ")
                < summary.index("time series: "))

    def test_summarizes_manifest(self, artifacts, capsys):
        code, out, _ = run_cli(
            capsys, "telemetry", "latest", "--store-dir", str(artifacts["store"]))
        assert code == 0
        assert "hit ratio" in out
        assert "C5" in out

    def test_summarizes_metrics(self, artifacts, tmp_path, capsys):
        # A loose metrics document (as written before the trace carried
        # it) goes through the same summarizer.
        metrics = tmp_path / "metrics.json"
        metrics.write_text(
            json.dumps(load(artifacts["trace"])["otherData"]["metrics"]))
        code, out, _ = run_cli(capsys, "telemetry", str(metrics))
        assert code == 0
        assert "des.runs" in out

    def test_rejects_unknown_document(self, tmp_path, capsys):
        p = tmp_path / "other.json"
        p.write_text('{"hello": 1}')
        code, _, err = run_cli(capsys, "telemetry", str(p))
        assert code == 2
        assert "not a repro" in err

    def test_rejects_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "telemetry", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err


class TestLogLevelFlag:
    def test_debug_level_emits_repro_logs(self, tmp_path, capsys, caplog):
        import logging

        with caplog.at_level(logging.DEBUG):
            code, _, _ = run_cli(
                capsys, "--log-level", "debug", "experiment", "C5",
                "--cache-dir", str(tmp_path / "cache"),
            )
        assert code == 0
        assert any(r.name.startswith("repro.") for r in caplog.records)


def test_sparkline_of_a_short_series_covers_every_value():
    # Fewer values than columns: one column per value, so a late peak
    # shows at the right edge instead of being sampled away.
    from repro.cli.telemetry import _sparkline

    assert _sparkline([0, 0, 0, 0, 0, 0, 0, 0, 9]) == "        @"
    assert _sparkline([1.0] * 3) == "   "
    ramp = _sparkline(list(range(100)), width=32)
    assert len(ramp) == 32
    assert list(ramp) == sorted(ramp, key=" .:-=+*#%@".index)
