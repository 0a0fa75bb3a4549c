"""Sweep progress ledger, ``repro-io watch``, and the series/sweep
summarizers of ``repro-io telemetry``."""

import json

import pytest

from repro.cli import main
from repro.cluster.platform import tiny_spec
from repro.scenario import ScenarioSpec, WorkloadSpec, run_sweep
from repro.scenario.sweep import SWEEP_PROGRESS_NAME, SWEEP_PROGRESS_SCHEMA

KiB = 1024


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _base():
    return ScenarioSpec(
        name="watchtest",
        platform=tiny_spec(),
        workloads=(
            WorkloadSpec("ior", 2, {"block_size": 128 * KiB,
                                    "transfer_size": 64 * KiB}),
        ),
        seed=0,
    )


@pytest.fixture
def swept(tmp_path):
    """One finished two-point sweep with its progress ledger."""
    manifest = tmp_path / "sweep-manifest.json"
    results = run_sweep(
        _base(), {"n_oss": [1, 2]},
        cache_dir=tmp_path / "store", manifest_path=manifest,
    )
    assert len(results) == 2
    return tmp_path


class TestProgressLedger:
    def test_written_next_to_manifest(self, swept):
        doc = json.loads((swept / SWEEP_PROGRESS_NAME).read_text())
        assert doc["schema"] == SWEEP_PROGRESS_SCHEMA
        assert doc["finished"] is True
        assert doc["total"] == 2
        assert doc["counts"]["done"] + doc["counts"]["cached"] == 2
        assert doc["counts"]["pending"] == doc["counts"]["failed"] == 0
        for point in doc["points"].values():
            assert point["status"] in ("done", "cached")

    def test_cached_rerun_counts_hits(self, swept):
        run_sweep(
            _base(), {"n_oss": [1, 2]},
            cache_dir=swept / "store",
            manifest_path=swept / "sweep-manifest.json",
        )
        doc = json.loads((swept / SWEEP_PROGRESS_NAME).read_text())
        assert doc["counts"]["cached"] == 2
        assert doc["finished"] is True

    def test_no_manifest_no_ledger(self, tmp_path):
        run_sweep(
            _base(), {"n_oss": [1]},
            cache_dir=tmp_path / "store", manifest=False,
        )
        assert not (tmp_path / SWEEP_PROGRESS_NAME).exists()


class TestWatchCommand:
    def test_watch_once_renders_finished_sweep(self, swept, capsys):
        code, out, _ = run_cli(capsys, "watch", str(swept), "--once")
        assert code == 0
        assert "2/2 point(s)" in out
        assert "100%" in out
        assert "finished" in out

    def test_watch_accepts_file_path(self, swept, capsys):
        code, out, _ = run_cli(
            capsys, "watch", str(swept / SWEEP_PROGRESS_NAME), "--once")
        assert code == 0
        assert "watchtest" in out

    def test_watch_once_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "watch", str(tmp_path), "--once")
        assert code == 2
        assert "no sweep progress" in err

    def test_watch_rejects_other_documents(self, tmp_path, capsys):
        p = tmp_path / SWEEP_PROGRESS_NAME
        p.write_text('{"schema": "something/else"}')
        code, _, err = run_cli(capsys, "watch", str(p), "--once")
        assert code == 2

    def test_watch_timeout_on_unfinished(self, swept, capsys):
        doc = json.loads((swept / SWEEP_PROGRESS_NAME).read_text())
        doc["finished"] = False
        doc["counts"]["pending"] = 1
        (swept / SWEEP_PROGRESS_NAME).write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "watch", str(swept), "--timeout", "0.05",
            "--interval", "0.01",
        )
        assert code == 1


def _service_ledger(
    *, finished=False, failed=0, done=2, queued=1, warm=3, updated=None
):
    """A synthetic run-service job ledger (repro.service.jobs/1)."""
    import time

    from repro.service.jobs import SERVICE_LEDGER_SCHEMA

    jobs = {}
    for i in range(done):
        jobs[f"job-{i:05d}"] = {"status": "done", "tenant": f"t{i}",
                                "kind": "scenario", "total": 1, "warm": 0,
                                "submitted": 1.0, "seconds": 0.5}
    for i in range(failed):
        jobs[f"job-f{i:05d}"] = {"status": "failed", "tenant": "bad",
                                 "kind": "scenario", "total": 1, "warm": 0,
                                 "submitted": 1.0,
                                 "error": "ValueError: synthetic"}
    for i in range(queued):
        jobs[f"job-q{i:05d}"] = {"status": "queued", "tenant": "slow",
                                 "kind": "sweep", "total": 4, "warm": 0,
                                 "submitted": 2.0}
    counts = {s: 0 for s in ("queued", "running", "done", "failed",
                             "cancelled")}
    for row in jobs.values():
        counts[row["status"]] += 1
    return {
        "schema": SERVICE_LEDGER_SCHEMA,
        "service": {"host": "127.0.0.1", "port": 7077, "pid": 4242,
                    "workers": 2, "store": "/tmp/store"},
        "queue": queued,
        "running": 0,
        "tenants": {"slow": queued} if queued else {},
        "stats": {"jobs_submitted": len(jobs), "tasks_submitted": 10,
                  "computed": 4, "warm_hits": warm, "coalesced": 2,
                  "requeued": 1, "done": done, "failed": failed,
                  "cancelled": 0, "rejected_backpressure": 0,
                  "rejected_quota": 1},
        "started": 1.0,
        "updated": time.time() if updated is None else updated,
        "finished": finished,
        "total": len(jobs),
        "counts": counts,
        "jobs": jobs,
    }


class TestWatchServiceLedger:
    def _write(self, tmp_path, doc):
        from repro.service.jobs import SERVICE_LEDGER_NAME

        path = tmp_path / SERVICE_LEDGER_NAME
        path.write_text(json.dumps(doc))
        return path

    def test_renders_service_frame(self, tmp_path, capsys):
        self._write(tmp_path, _service_ledger())
        code, out, _ = run_cli(capsys, "watch", str(tmp_path), "--once")
        assert code == 0
        assert "service 127.0.0.1:7077" in out
        assert "pid 4242" in out
        assert "2/3 job(s)" in out
        assert "queued 1" in out and "done 2" in out
        assert "3 warm" in out and "2 coalesced" in out and "1 requeued" in out
        assert "store-hit ratio 30%" in out
        assert "1 quota" in out
        assert "queued by tenant: slow=1" in out

    def test_finished_ledger_reports_stopped(self, tmp_path, capsys):
        path = self._write(
            tmp_path, _service_ledger(finished=True, queued=0))
        code, out, _ = run_cli(capsys, "watch", str(path), "--once")
        assert code == 0
        assert "service stopped" in out

    def test_failed_jobs_listed_and_fail_on_errors_exits_nonzero(
        self, tmp_path, capsys
    ):
        self._write(tmp_path, _service_ledger(failed=1))
        code, out, _ = run_cli(capsys, "watch", str(tmp_path), "--once")
        assert code == 0  # without the flag, rendering only
        assert "FAILED: ValueError: synthetic" in out
        code, _, err = run_cli(
            capsys, "watch", str(tmp_path), "--once", "--fail-on-errors")
        assert code == 1
        assert "1 failed" in err

    def test_fail_on_errors_passes_a_clean_ledger(self, tmp_path, capsys):
        self._write(tmp_path, _service_ledger())
        code, _, _ = run_cli(
            capsys, "watch", str(tmp_path), "--once", "--fail-on-errors")
        assert code == 0

    def test_sweep_ledger_preferred_when_both_present(self, swept, capsys):
        self._write(swept, _service_ledger())
        code, out, _ = run_cli(capsys, "watch", str(swept), "--once")
        assert code == 0
        assert "point(s)" in out and "service" not in out


class TestWatchFailOnErrorsSweep:
    def test_failed_sweep_point_exits_nonzero(self, swept, capsys):
        doc = json.loads((swept / SWEEP_PROGRESS_NAME).read_text())
        point = next(iter(doc["points"]))
        doc["points"][point] = {"status": "failed", "seconds": 0.1,
                                "error": "ValueError: boom"}
        doc["counts"]["failed"] = 1
        doc["counts"]["done"] -= 1
        (swept / SWEEP_PROGRESS_NAME).write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "watch", str(swept), "--once", "--fail-on-errors")
        assert code == 1
        assert "1 failed" in err


class TestTelemetrySummarizers:
    def test_telemetry_renders_sweep_progress(self, swept, capsys):
        code, out, _ = run_cli(
            capsys, "telemetry", str(swept / SWEEP_PROGRESS_NAME))
        assert code == 0
        assert "watchtest" in out and "point(s)" in out

    def test_telemetry_renders_timeseries(self, tmp_path, capsys):
        from repro.telemetry.timeseries import SeriesRegistry

        reg = SeriesRegistry()
        for i in range(50):
            reg.record("pfs.ost.0.queue", i * 0.01, float(i % 7), "reqs")
            reg.record("net.storage.core.util", i * 0.01, 0.5, "frac")
        p = tmp_path / "series.json"
        p.write_text(json.dumps(reg.to_dict()))
        code, out, _ = run_cli(capsys, "telemetry", str(p))
        assert code == 0
        assert "pfs.ost.0.queue" in out
        assert "busiest OST" in out
        assert "busiest link" in out
        assert "mean" in out and "p99" in out

    def test_telemetry_timeseries_without_samples(self, tmp_path, capsys):
        from repro.telemetry.timeseries import SeriesRegistry

        reg = SeriesRegistry()
        reg.series("pfs.ost.0.queue", "reqs")  # declared, never sampled
        p = tmp_path / "series.json"
        p.write_text(json.dumps(reg.to_dict()))
        code, out, _ = run_cli(capsys, "telemetry", str(p))
        assert code == 0
        assert "time series: 1 series, 0 point(s)" in out
