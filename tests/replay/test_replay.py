"""Unit tests for trace replay and fidelity verification.

A replay is :func:`~repro.simulate.trace_to_workload` run through
:func:`~repro.simulate.run_workload` under a fresh
:class:`~repro.monitoring.RecorderTracer`.
"""

import pytest

from repro.cluster import tiny_cluster
from repro.monitoring import RecorderTracer
from repro.ops import IORecord, OpKind
from repro.pfs import build_pfs
from repro.replay import verify_fidelity
from repro.simulate import run_workload, trace_to_workload
from repro.workloads import CheckpointConfig, CheckpointWorkload, IORConfig, IORWorkload

MiB = 1024 * 1024
KiB = 1024


def traced_run(workload):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    tracer = RecorderTracer()
    result = run_workload(platform, pfs, workload, observers=[tracer])
    records = [r for r in tracer.records if r.layer == "posix"]
    return records, result


def replay(records, platform, pfs, preserve_think_time):
    """Replay posix ``records`` on the given system, re-tracing the replay:
    ``(result, replayed posix records)``."""
    workload = trace_to_workload(records, preserve_think_time=preserve_think_time)
    tracer = RecorderTracer()
    result = run_workload(platform, pfs, workload, observers=[tracer])
    return result, [r for r in tracer.records if r.layer == "posix"]


class TestReplayer:
    def test_replay_reproduces_structure(self):
        w = IORWorkload(IORConfig(block_size=2 * MiB, transfer_size=512 * KiB), 2)
        original, _ = traced_run(w)
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        _, replayed = replay(original, platform, pfs, preserve_think_time=False)
        report = verify_fidelity(original, replayed)
        assert report.op_count_match
        assert report.op_mix_match
        assert report.bytes_match
        assert report.offsets_match

    def test_timing_faithful_replay_close_to_original(self):
        w = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=4 * MiB, steps=2, compute_seconds=1.0,
                             fsync=False),
            n_ranks=2,
        )
        original, orig_result = traced_run(w)
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        _, replayed = replay(original, platform, pfs, preserve_think_time=True)
        report = verify_fidelity(original, replayed)
        assert (report.op_count_match and report.op_mix_match
                and report.bytes_match and report.offsets_match), report.summary()
        assert report.duration_error <= 0.35, report.summary()

    def test_fast_replay_is_faster(self):
        w = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=2 * MiB, steps=2, compute_seconds=2.0,
                             fsync=False),
            n_ranks=2,
        )
        original, _ = traced_run(w)

        def duration(preserve):
            platform = tiny_cluster()
            pfs = build_pfs(platform)
            result, _ = replay(original, platform, pfs, preserve_think_time=preserve)
            return result.duration

        assert duration(False) < duration(True) / 2

    def test_replay_on_different_platform(self):
        """Replay-based evaluation of alternative hardware (Sec. IV-B-3)."""
        from repro.cluster import medium_cluster

        w = IORWorkload(IORConfig(block_size=4 * MiB, transfer_size=MiB), 4)
        original, _ = traced_run(w)
        platform = medium_cluster()
        pfs = build_pfs(platform)
        _, replayed = replay(original, platform, pfs, preserve_think_time=False)
        report = verify_fidelity(original, replayed)
        assert report.bytes_match  # same I/O, different hardware


class TestFidelityReport:
    def rec(self, kind, offset=0, nbytes=KiB, rank=0, start=0.0, end=1.0):
        return IORecord("posix", kind, "/f", offset, nbytes, rank, start, end)

    def test_perfect_match(self):
        recs = [self.rec(OpKind.WRITE), self.rec(OpKind.READ, offset=KiB)]
        report = verify_fidelity(recs, list(recs))
        assert report.op_count_match and report.op_mix_match
        assert report.bytes_match and report.offsets_match
        assert report.duration_error == 0.0
        assert "ok" in report.summary()

    def test_detects_missing_ops(self):
        orig = [self.rec(OpKind.WRITE), self.rec(OpKind.WRITE, offset=KiB)]
        replay = [self.rec(OpKind.WRITE)]
        report = verify_fidelity(orig, replay)
        assert not report.op_count_match

    def test_detects_byte_mismatch(self):
        orig = [self.rec(OpKind.WRITE, nbytes=2 * KiB)]
        replay = [self.rec(OpKind.WRITE, nbytes=KiB)]
        report = verify_fidelity(orig, replay)
        assert not report.bytes_match

    def test_detects_offset_divergence(self):
        orig = [self.rec(OpKind.WRITE, offset=0)]
        replay = [self.rec(OpKind.WRITE, offset=MiB)]
        report = verify_fidelity(orig, replay)
        assert not report.offsets_match

    def test_order_insensitive_offsets(self):
        a = [self.rec(OpKind.WRITE, offset=0), self.rec(OpKind.WRITE, offset=KiB)]
        b = [self.rec(OpKind.WRITE, offset=KiB), self.rec(OpKind.WRITE, offset=0)]
        assert verify_fidelity(a, b).offsets_match

    def test_duration_error(self):
        orig = [self.rec(OpKind.WRITE, start=0.0, end=10.0)]
        replay = [self.rec(OpKind.WRITE, start=0.0, end=12.0)]
        report = verify_fidelity(orig, replay)
        assert report.duration_error == pytest.approx(0.2)
