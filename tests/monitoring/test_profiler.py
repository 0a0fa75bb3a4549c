"""Unit tests for counters, the Darshan-like profiler, and persistence."""

import pytest

from repro.cluster import tiny_cluster
from repro.monitoring import (
    DarshanProfiler,
    JobProfile,
    load_profile,
    save_profile,
)
from repro.monitoring.counters import FileCounters, JobCounters
from repro.ops import IORecord, OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import IORConfig, IORWorkload

MiB = 1024 * 1024
KiB = 1024


def rec(kind, path="/f", offset=0, nbytes=0, rank=0, start=0.0, end=0.1, layer="posix"):
    return IORecord(
        layer=layer, kind=kind, path=path, offset=offset, nbytes=nbytes,
        rank=rank, start=start, end=end,
    )


class TestFileCounters:
    def test_observe_reads_and_writes(self):
        fc = FileCounters("/f", 0)
        fc.observe(rec(OpKind.WRITE, nbytes=MiB))
        fc.observe(rec(OpKind.READ, nbytes=4 * KiB, start=0.1, end=0.2))
        assert fc.writes == 1 and fc.reads == 1
        assert fc.bytes_written == MiB and fc.bytes_read == 4 * KiB
        assert fc.write_size_hist[4] == 1  # 1 MiB falls in the <=1 MiB bucket
        assert fc.read_size_hist[2] == 1  # 4 KiB falls in the <=10 KiB bucket

    def test_sequentiality_detection(self):
        fc = FileCounters("/f", 0)
        fc.observe(rec(OpKind.WRITE, offset=0, nbytes=100))
        fc.observe(rec(OpKind.WRITE, offset=100, nbytes=100))  # sequential
        fc.observe(rec(OpKind.WRITE, offset=500, nbytes=100))  # jump
        assert fc.seq_writes == 1
        assert fc.seq_write_fraction() == pytest.approx(1 / 3)

    def test_meta_ops_counted(self):
        fc = FileCounters("/f", 0)
        fc.observe(rec(OpKind.OPEN))
        fc.observe(rec(OpKind.STAT))
        fc.observe(rec(OpKind.FSYNC))
        assert fc.meta_ops == 3
        assert fc.opens == 1 and fc.stats_calls == 1 and fc.fsyncs == 1

    def test_roundtrip_dict(self):
        fc = FileCounters("/f", 2)
        fc.observe(rec(OpKind.WRITE, nbytes=100, rank=2))
        fc2 = FileCounters.from_dict(fc.to_dict())
        assert fc2.path == "/f" and fc2.rank == 2
        assert fc2.bytes_written == 100


class TestJobCounters:
    def test_fold_and_ratio(self):
        a = FileCounters("/a", 0)
        a.observe(rec(OpKind.WRITE, nbytes=100))
        b = FileCounters("/b", 0)
        b.observe(rec(OpKind.READ, nbytes=300))
        j = JobCounters()
        j.fold(a)
        j.fold(b)
        assert j.files_accessed == 2
        assert (j.bytes_read, j.bytes_written) == (300, 100)
        assert not j.write_intensive()


class TestDarshanProfiler:
    def test_profiles_real_workload(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        profiler = DarshanProfiler(job_name="ior-test")
        w = IORWorkload(IORConfig(block_size=MiB, transfer_size=256 * KiB, read=True), 4)
        run_workload(platform, pfs, w, observers=[profiler])
        profile = profiler.profile(n_ranks=4)
        assert profile.job.bytes_written == 4 * MiB
        assert profile.job.bytes_read == 4 * MiB
        assert profile.n_ranks == 4
        assert profile.duration > 0
        assert "/ior.data" in profile.files()
        # IOR sequential: per-rank streams are detected as sequential.
        fc = profile.counters_for_file("/ior.data")
        assert fc.seq_write_fraction() > 0.5

    def test_layer_filtering(self):
        profiler = DarshanProfiler(layer="posix")
        profiler(rec(OpKind.WRITE, nbytes=10, layer="mpiio"))
        assert profiler.records_seen == 0
        profiler(rec(OpKind.WRITE, nbytes=10, layer="posix"))
        assert profiler.records_seen == 1

    def test_io_fraction_bounded(self):
        profiler = DarshanProfiler()
        profiler(rec(OpKind.WRITE, nbytes=10, start=0.0, end=1.0))
        p = profiler.profile(n_ranks=1)
        assert 0.0 <= p.io_fraction() <= 1.0

    def test_report_contains_key_lines(self):
        profiler = DarshanProfiler(job_name="myjob")
        profiler(rec(OpKind.WRITE, nbytes=MiB))
        text = profiler.profile(n_ranks=1).report()
        assert "myjob" in text
        assert "/f" in text
        assert "total bytes" in text

    def test_counters_for_missing_file(self):
        p = DarshanProfiler().profile(n_ranks=1)
        with pytest.raises(KeyError):
            p.counters_for_file("/nope")


def test_profile_persistence_roundtrip(tmp_path):
    profiler = DarshanProfiler(job_name="persist")
    profiler(rec(OpKind.WRITE, nbytes=MiB, rank=1))
    profiler(rec(OpKind.READ, nbytes=KiB, rank=0, path="/other"))
    profile = profiler.profile(n_ranks=2)
    path = tmp_path / "job.darshan.json"
    save_profile(profile, path)
    loaded = load_profile(path)
    assert loaded.job_name == "persist"
    assert loaded.n_ranks == 2
    assert loaded.job.bytes_written == profile.job.bytes_written
    assert set(loaded.files()) == set(profile.files())
