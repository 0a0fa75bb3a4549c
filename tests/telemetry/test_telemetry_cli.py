"""CLI surface of the self-telemetry layer: ``--trace`` / ``--metrics`` /
``--metrics-json`` on ``repro-io experiment`` and the ``repro-io telemetry``
summarizer."""

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
    """One instrumented experiment run producing all three artifacts."""
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    manifest = tmp_path / "manifest.json"
    code, out, _ = run_cli(
        capsys, "experiment", "C5",
        "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        "--trace", str(trace), "--metrics", "--metrics-json", str(metrics),
    )
    assert code == 0
    # --no-cache still writes the manifest next to the cache dir.
    run_cli(capsys, "experiment", "C5", "--cache-dir", str(tmp_path / "cache"))
    assert (tmp_path / "manifest.json").exists()
    return {"trace": trace, "metrics": metrics, "manifest": manifest,
            "out": out}


class TestExperimentTelemetryFlags:
    def test_trace_is_valid_chrome_json(self, artifacts):
        with open(artifacts["trace"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "repro-io experiment" in names
        assert "Environment.run" in names
        assert "experiment_task" in names

    def test_metrics_table_printed(self, artifacts):
        out = artifacts["out"]
        assert "self-telemetry metrics" in out
        assert "des.events.executed" in out
        assert "runner.cache.miss" in out
        assert "pfs.oss.rpcs" in out

    def test_metrics_json_schema(self, artifacts):
        with open(artifacts["metrics"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["metrics"]["des.runs"]["value"] >= 1

    def test_no_flags_no_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "C5", "--no-cache", "--no-manifest",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "self-telemetry" not in out
        assert not (tmp_path / "manifest.json").exists()


class TestTelemetrySubcommand:
    def test_summarizes_trace(self, artifacts, capsys):
        code, out, _ = run_cli(capsys, "telemetry", str(artifacts["trace"]))
        assert code == 0
        assert "span" in out and "self ms" in out
        assert "Environment.run" in out

    def test_summarizes_manifest(self, artifacts, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "telemetry", str(tmp_path / "manifest.json"))
        assert code == 0
        assert "hit ratio" in out
        assert "C5" in out

    def test_summarizes_metrics(self, artifacts, capsys):
        code, out, _ = run_cli(capsys, "telemetry", str(artifacts["metrics"]))
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
                "--cache-dir", str(tmp_path / "cache"), "--no-manifest",
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
