"""Unit and property tests for trace compression, extrapolation and replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import tiny_cluster
from repro.modeling import (
    ReplayModel,
    TraceExtrapolator,
    compress_ops,
    decompress,
)
from repro.monitoring import RecorderTracer
from repro.ops import IOOp, OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import CheckpointConfig, CheckpointWorkload, IORConfig, IORWorkload

MiB = 1024 * 1024
KiB = 1024


class TestCompression:
    def test_sequential_run_collapses(self):
        ops = [
            IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB) for i in range(100)
        ]
        ct = compress_ops(ops)
        assert ct.compressed_size == 1
        assert ct.ratio == 100.0
        assert decompress(ct) == ops

    def test_loop_of_phases_folds(self):
        # 10 iterations of (compute, 4 sequential writes, barrier).
        ops = []
        for _step in range(10):
            ops.append(IOOp(OpKind.COMPUTE, duration=1.0))
            for i in range(4):
                ops.append(IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB))
            ops.append(IOOp(OpKind.BARRIER))
        ct = compress_ops(ops)
        assert decompress(ct) == ops
        # One loop node over (compute, run, barrier).
        assert ct.compressed_size <= 4
        assert ct.ratio > 10

    def test_long_repetitive_stream_compresses_over_100x(self):
        # 50 iterations of (compute, 100 sequential writes, barrier).
        ops = []
        for _step in range(50):
            ops.append(IOOp(OpKind.COMPUTE, duration=1.0))
            for i in range(100):
                ops.append(IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB))
            ops.append(IOOp(OpKind.BARRIER))
        ct = compress_ops(ops)
        assert decompress(ct) == ops
        assert ct.ratio > 100

    def test_random_offsets_do_not_collapse(self):
        offsets = [7, 3, 11, 1, 9, 4]
        ops = [IOOp(OpKind.READ, "/f", offset=o * KiB, nbytes=KiB) for o in offsets]
        ct = compress_ops(ops)
        assert decompress(ct) == ops
        assert ct.compressed_size == len(ops)  # incompressible

    def test_different_files_break_runs(self):
        ops = [
            IOOp(OpKind.WRITE, f"/f{i}", offset=0, nbytes=KiB) for i in range(5)
        ]
        ct = compress_ops(ops)
        assert decompress(ct) == ops
        assert ct.compressed_size == 5

    def test_runs_with_different_bases_not_merged(self):
        # Two runs with the same shape but different start offsets must not
        # fold into one loop (would corrupt offsets on expansion).
        ops = (
            [IOOp(OpKind.WRITE, "/f", offset=i * KiB, nbytes=KiB) for i in range(4)]
            + [IOOp(OpKind.WRITE, "/f", offset=MiB + i * KiB, nbytes=KiB) for i in range(4)]
        )
        ct = compress_ops(ops)
        assert decompress(ct) == ops

    def test_meta_differences_preserved(self):
        ops = [
            IOOp(OpKind.READ, "/f", offset=0, nbytes=KiB, meta={"epoch": 0}),
            IOOp(OpKind.READ, "/f", offset=KiB, nbytes=KiB, meta={"epoch": 1}),
        ]
        ct = compress_ops(ops)
        assert decompress(ct) == ops

    def test_empty_stream(self):
        ct = compress_ops([])
        assert decompress(ct) == []
        assert ct.ratio == 1.0

    def test_checkpoint_trace_compresses_well(self):
        """Claim C7's mechanism at unit scale."""
        w = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=16 * MiB, steps=8, transfer_size=MiB,
                             compute_seconds=1.0, fsync=False),
            n_ranks=2,
        )
        ops = list(w.ops(0))
        ct = compress_ops(ops)
        assert decompress(ct) == ops
        assert ct.ratio > 3.0


op_kinds = st.sampled_from([OpKind.READ, OpKind.WRITE, OpKind.BARRIER, OpKind.COMPUTE])
random_ops = st.lists(
    st.builds(
        IOOp,
        kind=op_kinds,
        path=st.sampled_from(["/a", "/b", "/c"]),
        offset=st.integers(0, 1 << 16),
        nbytes=st.integers(0, 1 << 12),
        duration=st.floats(0, 1, allow_nan=False),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(ops=random_ops)
def test_compression_roundtrip_property(ops):
    """decompress(compress(x)) == x for arbitrary streams."""
    ct = compress_ops(ops)
    assert decompress(ct) == list(ops)


@settings(max_examples=50, deadline=None)
@given(
    pattern=st.lists(
        st.builds(
            IOOp,
            kind=op_kinds,
            path=st.sampled_from(["/a", "/b"]),
            offset=st.integers(0, 1 << 10),
            nbytes=st.integers(1, 64),
        ),
        min_size=1,
        max_size=5,
    ),
    repeats=st.integers(3, 10),
)
def test_repeated_patterns_always_compress(pattern, repeats):
    ops = list(pattern) * repeats
    ct = compress_ops(ops)
    assert decompress(ct) == ops
    assert ct.compressed_size < len(ops) or len(pattern) * repeats <= 2


class TestExtrapolation:
    def traces_for(self, scales, fpp=False, segments=2):
        out = {}
        for n in scales:
            cfg = IORConfig(
                block_size=4 * MiB, transfer_size=MiB, segments=segments,
                file_per_process=fpp,
            )
            w = IORWorkload(cfg, n)
            per_rank = []
            for r in range(n):
                # Data ops only: rank 0's extra CREATE breaks regularity.
                per_rank.append([op for op in w.ops(r) if op.kind.is_data])
            out[n] = per_rank
        return out

    def test_shared_file_offsets_extrapolate_exactly(self):
        ex = TraceExtrapolator().fit(self.traces_for([2, 4, 8]))
        assert ex.is_exact()
        predicted = ex.generate(16)
        expected = IORWorkload(
            IORConfig(block_size=4 * MiB, transfer_size=MiB, segments=2), 16
        )
        for rank in (0, 7, 15):
            pred_ops = list(predicted.ops(rank))
            exp_ops = [op for op in expected.ops(rank) if op.kind.is_data]
            assert [op.offset for op in pred_ops] == [op.offset for op in exp_ops]
            assert [op.nbytes for op in pred_ops] == [op.nbytes for op in exp_ops]

    def test_fpp_paths_parameterised(self):
        ex = TraceExtrapolator().fit(self.traces_for([2, 4], fpp=True))
        predicted = ex.generate(8)
        ops_r5 = list(predicted.ops(5))
        assert all(op.path.endswith("00000005") for op in ops_r5)

    def test_requires_two_scales(self):
        with pytest.raises(ValueError):
            TraceExtrapolator().fit(self.traces_for([4]))

    def test_requires_regular_streams(self):
        traces = self.traces_for([2, 4])
        traces[2][0].append(IOOp(OpKind.READ, "/x", 0, 1))
        with pytest.raises(ValueError, match="irregular"):
            TraceExtrapolator().fit(traces)

    def test_generate_requires_fit(self):
        with pytest.raises(RuntimeError):
            TraceExtrapolator().generate(8)


class TestReplayModel:
    def test_from_trace_roundtrip_volume(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        tracer = RecorderTracer()
        w = IORWorkload(IORConfig(block_size=2 * MiB, transfer_size=256 * KiB), 2)
        original = run_workload(platform, pfs, w, observers=[tracer])

        model = ReplayModel.from_records(tracer.records, name="ior-model")
        assert model.n_ranks == 2
        assert model.compression_ratio > 1.5

        platform2 = tiny_cluster()
        pfs2 = build_pfs(platform2)
        replayed = model.predict_runtime(platform2, pfs2, include_think_time=False)
        assert replayed.bytes_written == original.bytes_written
        # Replay predicts runtime within 2x (think-time excluded).
        assert replayed.duration < original.duration * 2

    def test_workload_includes_think_time(self):
        ops = [
            IOOp(OpKind.WRITE, "/f", offset=0, nbytes=KiB),
        ]
        from repro.ops import IORecord

        records = [
            IORecord("posix", OpKind.WRITE, "/f", 0, KiB, 0, start=1.0, end=1.1),
            IORecord("posix", OpKind.WRITE, "/f", KiB, KiB, 0, start=5.0, end=5.1),
        ]
        model = ReplayModel.from_records(records)
        wl = model.to_workload(include_think_time=True)
        kinds = [op.kind for op in wl.ops(0)]
        assert OpKind.COMPUTE in kinds
