"""Unit tests for the Recorder-like tracer, DXT, and trace persistence."""

import pytest

from repro.cluster import tiny_cluster
from repro.monitoring import DXTTracer, RecorderTracer, load_trace, save_trace
from repro.ops import IORecord, OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import DLIOConfig, DLIOWorkload, IORConfig, IORWorkload, OpStreamWorkload

MiB = 1024 * 1024
KiB = 1024


def run_traced_ior(n_ranks=2, api="posix", **cfg_kw):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    tracer = RecorderTracer()
    cfg = IORConfig(block_size=MiB, transfer_size=256 * KiB, api=api, **cfg_kw)
    w = IORWorkload(cfg, n_ranks)
    run_workload(platform, pfs, w, observers=[tracer])
    return tracer


class TestRecorderTracer:
    def test_multi_level_capture(self):
        tracer = run_traced_ior(api="mpiio")
        layers = tracer.archive.layers()
        # MPI-IO runs show all three capture levels below the app.
        assert "mpiio" in layers and "posix" in layers and "pfs" in layers

    def test_records_ordered_and_sequenced(self):
        tracer = run_traced_ior()
        seqs = [r.extra["seq"] for r in tracer.records]
        assert seqs == sorted(seqs)

    def test_filters(self):
        tracer = run_traced_ior(n_ranks=2)
        posix = tracer.archive.at_layer("posix")
        assert posix.layers() == ["posix"]
        assert posix.ranks() == [0, 1]
        assert set(r.path for r in posix) == {"/ior.data"}

    def test_histogram_and_summary(self):
        tracer = run_traced_ior()
        hist = tracer.archive.op_histogram()
        assert hist.get("posix:write", 0) == 8  # 2 ranks x 4 transfers
        assert "records" in tracer.archive.summary()

    def test_amplification_collective(self):
        """Collective buffering coalesces: posix bytes == mpiio bytes here."""
        tracer = run_traced_ior(api="mpiio", collective=True)
        archive = tracer.archive
        amp = (archive.at_layer("posix").bytes_moved()
               / archive.at_layer("mpiio").bytes_moved())
        assert amp == pytest.approx(1.0, abs=0.01)

    def test_duration_and_bytes(self):
        tracer = run_traced_ior()
        posix = tracer.archive.at_layer("posix").data_ops()
        assert posix.bytes_moved() == 2 * MiB
        assert posix.duration() > 0


class TestDXT:
    def test_segments_captured_with_timing(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        dxt = DXTTracer()
        w = IORWorkload(IORConfig(block_size=MiB, transfer_size=256 * KiB), 2)
        run_workload(platform, pfs, w, observers=[dxt])
        assert len(dxt.segments()) == 8
        segs = dxt.segments(path="/ior.data", rank=0)
        assert len(segs) == 4
        assert all(s.end > s.start for s in segs)
        assert all(s.bandwidth > 0 for s in segs)

    def test_randomness_metric_separates_patterns(self):
        """Sequential IOR ~0 randomness; shuffled DLIO reads ~1."""
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        dxt_seq = DXTTracer()
        w = IORWorkload(IORConfig(block_size=2 * MiB, transfer_size=256 * KiB), 1)
        run_workload(platform, pfs, w, observers=[dxt_seq])
        assert dxt_seq.randomness("/ior.data", "write") < 0.2

        dlio = DLIOWorkload(
            DLIOConfig(n_samples=64, sample_bytes=16 * KiB, n_shards=1,
                       batch_size=8, compute_per_batch=0.0),
            n_ranks=1,
        )
        platform2 = tiny_cluster()
        pfs2 = build_pfs(platform2)
        gen = OpStreamWorkload("gen", [list(dlio.generation_ops(0))])
        run_workload(platform2, pfs2, gen)
        dxt_rand = DXTTracer()
        run_workload(platform2, pfs2, dlio, observers=[dxt_rand])
        shard = dlio.shard_path(0)
        assert dxt_rand.randomness(shard, "read") > 0.7

    def test_ignores_metadata_and_other_layers(self):
        dxt = DXTTracer(layer="posix")
        dxt(IORecord("posix", OpKind.OPEN, "/f", 0, 0, 0, 0.0, 0.1))
        dxt(IORecord("mpiio", OpKind.WRITE, "/f", 0, 10, 0, 0.0, 0.1))
        assert dxt.segments() == []


def test_trace_persistence_roundtrip(tmp_path):
    tracer = run_traced_ior()
    path = tmp_path / "trace.jsonl.gz"
    n = save_trace(tracer.records, path)
    assert n == len(tracer.records)
    loaded = load_trace(path)
    assert len(loaded) == n
    assert loaded[0].kind == tracer.records[0].kind
    assert loaded[0].layer == tracer.records[0].layer
    assert loaded[-1].end == pytest.approx(tracer.records[-1].end)
