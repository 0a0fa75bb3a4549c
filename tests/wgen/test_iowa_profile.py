"""Unit tests for profile-driven synthesis and IOWA's [20] workload sources."""

from repro.cluster import tiny_cluster
from repro.monitoring import DarshanProfiler, RecorderTracer
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload, trace_to_workload
from repro.wgen import parse_workload, synthesize_from_profile
from repro.workloads import IORConfig, IORWorkload

MiB = 1024 * 1024
KiB = 1024


def profiled_ior(read=True):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    profiler = DarshanProfiler(job_name="ior")
    tracer = RecorderTracer()
    w = IORWorkload(
        IORConfig(block_size=2 * MiB, transfer_size=256 * KiB, read=read), 4
    )
    result = run_workload(platform, pfs, w, observers=[profiler, tracer])
    return profiler.profile(n_ranks=4), tracer.records, result


class TestProfileSynthesis:
    def test_volume_and_op_counts_match_profile(self):
        profile, _, _ = profiled_ior()
        synth = synthesize_from_profile(profile, seed=1)
        assert synth.n_ranks == 4
        writes = [op for r in range(4) for op in synth.ops(r) if op.kind == OpKind.WRITE]
        reads = [op for r in range(4) for op in synth.ops(r) if op.kind == OpKind.READ]
        assert sum(op.nbytes for op in writes) == profile.job.bytes_written
        assert sum(op.nbytes for op in reads) == profile.job.bytes_read
        assert len(writes) == profile.job.writes
        assert len(reads) == profile.job.reads

    def test_deterministic_given_seed(self):
        profile, _, _ = profiled_ior()
        a = synthesize_from_profile(profile, seed=3)
        b = synthesize_from_profile(profile, seed=3)
        assert list(a.ops(2)) == list(b.ops(2))

    def test_think_time_included_by_default(self):
        profile, _, _ = profiled_ior()
        synth = synthesize_from_profile(profile)
        kinds = [op.kind for op in synth.ops(0)]
        assert OpKind.COMPUTE in kinds
        no_think = synthesize_from_profile(profile, include_think_time=False)
        assert OpKind.COMPUTE not in [op.kind for op in no_think.ops(0)]

    def test_synthesized_workload_runs_and_approximates(self):
        """Ablation A2's mechanism: synthesized run ~ original run."""
        profile, _, original = profiled_ior()
        synth = synthesize_from_profile(profile, include_think_time=False)
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        result = run_workload(platform, pfs, synth)
        assert result.bytes_written == original.bytes_written
        assert result.bytes_read == original.bytes_read
        # Runtime within 3x (layout and interleaving are re-synthesized).
        assert result.duration < original.duration * 3

    def test_sequentiality_preserved_approximately(self):
        profile, _, _ = profiled_ior(read=False)
        fc = profile.counters_for_file("/ior.data")
        synth = synthesize_from_profile(profile, seed=0, include_think_time=False)
        # Measure synthesized sequential fraction per rank.
        seq = 0
        total = 0
        for r in range(4):
            last_end = None
            for op in synth.ops(r):
                if op.kind != OpKind.WRITE:
                    continue
                if last_end is not None:
                    total += 1
                    if op.offset == last_end:
                        seq += 1
                last_end = op.offset + op.nbytes
        synth_frac = seq / total if total else 0.0
        assert abs(synth_frac - fc.seq_write_fraction()) < 0.3


class TestIOWA:
    """IOWA's trace, profile and synthetic sources each produce a workload
    that the simulation consumes through ``run_workload``."""

    def test_trace_source_to_simulation_consumer(self):
        _, records, original = profiled_ior(read=False)
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        workload = trace_to_workload(records, preserve_think_time=False)
        result = run_workload(platform, pfs, workload)
        assert result.bytes_written == original.bytes_written

    def test_profile_and_synthetic_sources(self):
        profile, _, _ = profiled_ior(read=False)
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        r1 = run_workload(
            platform, pfs,
            synthesize_from_profile(profile, include_think_time=False),
        )
        r2 = run_workload(
            platform, pfs,
            parse_workload('workload x { ranks 2; write shared "/x" size 1MB; }'),
        )
        assert r1.bytes_written == profile.job.bytes_written
        assert r2.bytes_written == 2 * MiB
