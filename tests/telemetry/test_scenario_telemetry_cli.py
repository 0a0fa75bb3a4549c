"""``repro-io scenario run --trace`` telemetry surface: the one merged
document (spans, counter tracks, metrics and series), its single store
artifact behind the ``telemetry/<digest16>`` ref, and the sections
``repro-io telemetry`` renders from it."""

import json

import pytest

from repro.cli import main
from repro.store import RunStore
from repro.telemetry import validate_chrome_trace
from repro.telemetry.metrics import METRICS_SCHEMA
from repro.telemetry.timeseries import TIMESERIES_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def run_artifacts(tmp_path, capsys):
    """One traced scenario run, its store, and the document's summary."""
    trace = tmp_path / "trace.json"
    store_dir = tmp_path / "store"
    code, out, _ = run_cli(
        capsys, "scenario", "run", "tiny",
        "--trace", str(trace), "--store-dir", str(store_dir),
    )
    assert code == 0
    code, summary, _ = run_cli(capsys, "telemetry", str(trace))
    assert code == 0
    return {"trace": trace, "store": store_dir, "out": out,
            "summary": summary}


class TestScenarioRunTelemetry:
    def test_merged_trace_written_and_valid(self, run_artifacts):
        doc = load(run_artifacts["trace"])
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["merged"] is True
        # Simulation-time probe series ride counter tracks.
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert any(n.startswith("pfs.oss.") for n in counters)

    def test_trace_carries_metrics_and_series(self, run_artifacts):
        other = load(run_artifacts["trace"])["otherData"]
        assert other["metrics"]["schema"] == METRICS_SCHEMA
        assert other["metrics"]["metrics"]["des.runs"]["value"] >= 1
        assert other["series"]["schema"] == TIMESERIES_SCHEMA
        assert other["series"]["series"]

    def test_series_table_printed(self, run_artifacts):
        summary = run_artifacts["summary"]
        assert "pfs.oss." in summary
        assert "net.storage.core.util" in summary
        assert "busiest OST" in summary

    def test_artifacts_stored_with_refs(self, run_artifacts, capsys):
        store = RunStore(run_artifacts["store"])
        refs = dict(store.refs("telemetry/*"))
        assert len(refs) == 1
        (name,) = refs
        art = store.get(store.resolve(name))
        assert art.kind == "trace"
        assert art.payload == load(run_artifacts["trace"])
        assert "telemetry stored: trace" in run_artifacts["out"]
        # The stored copy summarizes exactly like the loose file.
        code, out, _ = run_cli(capsys, "telemetry", name, "--store-dir",
                               str(run_artifacts["store"]))
        assert code == 0
        assert out == run_artifacts["summary"]

    def test_plain_run_produces_no_telemetry(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "scenario", "run", "tiny",
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert "telemetry" not in out
        assert not (tmp_path / "store").exists()

    def test_merged_trace_built_once(self, tmp_path, capsys, monkeypatch):
        from repro.telemetry import collect

        calls = []
        build = collect.merged_chrome_trace
        monkeypatch.setattr(collect, "merged_chrome_trace",
                            lambda: calls.append(1) or build())
        code, _, _ = run_cli(
            capsys, "scenario", "run", "tiny",
            "--trace", str(tmp_path / "sub" / "trace.json"),
            "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "sub" / "trace.json").is_file()


class TestPartitionSection:
    def test_partitioned_metrics_summary(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys, "scenario", "run", "scale-tiny",
            "--engine", "partitioned", "--engine-workers", "2",
            "--trace", str(trace), "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "telemetry", str(trace))
        assert code == 0
        assert "partitioned execution:" in out
        assert "windows" in out
        assert "cross-partition" in out
        assert "occupancy" in out
        assert "des.cohort." in out

    def test_unpartitioned_metrics_no_section(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys, "scenario", "run", "tiny",
            "--trace", str(trace), "--store-dir", str(tmp_path / "store"),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "telemetry", str(trace))
        assert code == 0
        assert "partitioned execution:" not in out
