"""Persistence round-trips (monitoring.formats) and TraceArchive query
edges not covered by the workload-driven tracer tests."""

import gzip
import json

from repro.monitoring import load_profile, load_trace, save_profile, save_trace
from repro.monitoring.profiler import DarshanProfiler
from repro.monitoring.tracer import TraceArchive
from repro.ops import IORecord, OpKind

KiB = 1024


def make_records():
    return [
        IORecord("posix", OpKind.OPEN, "/f", 0, 0, 0, 0.0, 0.1),
        IORecord("posix", OpKind.WRITE, "/f", 0, 4 * KiB, 0, 0.1, 0.5),
        IORecord("posix", OpKind.READ, "/f", 0, 2 * KiB, 1, 0.2, 0.6),
        IORecord("pfs", OpKind.WRITE, "/f", 0, 8 * KiB, 0, 0.1, 0.5),
        IORecord("posix", OpKind.CLOSE, "/f", 0, 0, 0, 0.6, 0.7),
    ]


class TestTraceFormat:
    def test_round_trip_preserves_records(self, tmp_path):
        records = make_records()
        out = tmp_path / "trace.jsonl.gz"
        assert save_trace(records, out) == len(records)
        loaded = load_trace(out)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.to_dict() == b.to_dict()

    def test_file_is_gzipped_jsonl(self, tmp_path):
        out = tmp_path / "trace.jsonl.gz"
        save_trace(make_records(), out)
        with gzip.open(out, "rt", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 5
        assert lines[1]["kind"] == "write"

    def test_empty_trace_round_trip(self, tmp_path):
        out = tmp_path / "empty.jsonl.gz"
        assert save_trace([], out) == 0
        assert load_trace(out) == []

    def test_save_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "a" / "b" / "trace.jsonl.gz"
        save_trace(make_records(), out)
        assert out.exists()

    def test_save_logs_at_debug(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.monitoring.formats"):
            save_trace(make_records(), tmp_path / "t.jsonl.gz")
        assert any("saved 5 trace record(s)" in r.message for r in caplog.records)


class TestProfileFormat:
    def test_round_trip(self, tmp_path):
        profiler = DarshanProfiler(job_name="job")
        for rec in make_records():
            profiler(rec)
        profile = profiler.profile(n_ranks=2)
        out = tmp_path / "profile.json"
        save_profile(profile, out)
        loaded = load_profile(out)
        assert loaded.to_dict() == profile.to_dict()


class TestArchiveQueryEdges:
    def test_empty_archive(self):
        archive = TraceArchive()
        assert len(archive) == 0
        assert archive.layers() == []
        assert archive.ranks() == []
        assert archive.duration() == 0.0
        assert archive.bytes_moved() == 0
        assert archive.op_histogram() == {}
        assert "0 records" in archive.summary()

    def test_op_histogram_counts_metadata_too(self):
        hist = TraceArchive(make_records()).op_histogram()
        assert hist == {
            "posix:open": 1, "posix:write": 1, "posix:read": 1,
            "posix:close": 1, "pfs:write": 1,
        }

    def test_data_ops_filters_metadata(self):
        data = TraceArchive(make_records()).data_ops()
        assert len(data) == 3
        assert data.bytes_moved() == 14 * KiB

    def test_round_tripped_archive_answers_same_queries(self, tmp_path):
        out = tmp_path / "t.jsonl.gz"
        save_trace(make_records(), out)
        archive = TraceArchive(load_trace(out))
        original = TraceArchive(make_records())
        assert archive.op_histogram() == original.op_histogram()
        for layer in ("posix", "pfs"):
            assert archive.at_layer(layer).bytes_moved() == \
                original.at_layer(layer).bytes_moved()
        assert archive.duration() == original.duration()
