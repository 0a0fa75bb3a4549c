"""Cross-subsystem integration tests.

Each test exercises a realistic pipeline spanning several packages, the
way a downstream user would chain them.
"""

import pytest

from repro.cluster import medium_cluster, tiny_cluster
from repro.modeling import ReplayModel, describe, t_test
from repro.monitoring import (
    DarshanProfiler,
    DXTTracer,
    EndToEndMonitor,
    RecorderTracer,
    load_trace,
    save_trace,
)
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.replay import verify_fidelity
from repro.simulate import run_workload, trace_to_workload
from repro.wgen import synthesize_from_profile
from repro.workloads import (
    DLIOConfig,
    DLIOWorkload,
    IORConfig,
    IORWorkload,
    OpStreamWorkload,
)

MiB = 1024 * 1024
KiB = 1024


def test_trace_record_persist_replay_verify(tmp_path):
    """record -> save -> load -> replay -> verify, across process boundary."""
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    tracer = RecorderTracer()
    w = IORWorkload(IORConfig(block_size=4 * MiB, transfer_size=MiB, read=True), 4)
    run_workload(platform, pfs, w, observers=[tracer])
    original = [r for r in tracer.records if r.layer == "posix"]

    path = tmp_path / "job.trace.jsonl.gz"
    save_trace(original, path)
    loaded = load_trace(path)
    assert len(loaded) == len(original)

    platform2 = tiny_cluster()
    pfs2 = build_pfs(platform2)
    replay_tracer = RecorderTracer()
    run_workload(platform2, pfs2,
                 trace_to_workload(loaded, preserve_think_time=False),
                 observers=[replay_tracer])
    replayed = [r for r in replay_tracer.records if r.layer == "posix"]
    report = verify_fidelity(original, replayed)
    assert report.op_count_match and report.bytes_match and report.offsets_match


def test_profile_to_iowa_to_simulation():
    """profile a DL job -> IOWA-style [20] synthesis -> simulate it."""
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    dlio = DLIOWorkload(
        DLIOConfig(n_samples=128, sample_bytes=64 * KiB, n_shards=4,
                   batch_size=8, compute_per_batch=0.0),
        n_ranks=4,
    )
    gen = OpStreamWorkload("gen", [list(dlio.generation_ops(r)) for r in range(4)])
    run_workload(platform, pfs, gen)
    profiler = DarshanProfiler(job_name="dlio")
    original = run_workload(platform, pfs, dlio, observers=[profiler])
    profile = profiler.profile(n_ranks=4)

    sim_platform = tiny_cluster()
    sim_pfs = build_pfs(sim_platform)
    synthetic = synthesize_from_profile(profile, include_think_time=False)
    synth = run_workload(sim_platform, sim_pfs, synthetic)
    assert synth.bytes_read == original.bytes_read


def test_replay_model_predicts_bigger_machine():
    """trace on tiny -> replay model -> predict runtime on medium."""
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    tracer = RecorderTracer()
    w = IORWorkload(
        IORConfig(block_size=8 * MiB, transfer_size=MiB, stripe_count=-1), 4
    )
    tiny_result = run_workload(platform, pfs, w, observers=[tracer])

    model = ReplayModel.from_records(tracer.records)
    big = medium_cluster()
    big_pfs = build_pfs(big)
    predicted = model.predict_runtime(big, big_pfs, include_think_time=False)
    # The medium machine has 4x the OSTs: the replay must not be slower.
    assert predicted.duration <= tiny_result.duration * 1.1
    assert predicted.bytes_written == tiny_result.bytes_written


def test_trace_replay_writes_the_original_bytes():
    """A whole multi-layer trace replays its posix layer on a fresh system."""
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    tracer = RecorderTracer()
    w = IORWorkload(IORConfig(block_size=2 * MiB, transfer_size=MiB), 2)
    original = run_workload(platform, pfs, w, observers=[tracer])

    platform2 = tiny_cluster()
    pfs2 = build_pfs(platform2)
    replayed = run_workload(
        platform2, pfs2,
        trace_to_workload(tracer.records, preserve_think_time=False),
    )
    assert replayed.bytes_written == original.bytes_written


def test_statistical_comparison_of_configurations():
    """The variability-analysis workflow: repeat runs, describe, test."""

    def times(transfer, n=6):
        out = []
        for i in range(n):
            platform = tiny_cluster(seed=100 + i)
            pfs = build_pfs(platform)
            cfg = IORConfig(
                block_size=4 * MiB, transfer_size=transfer, random_offsets=True,
                seed=i,
            )
            out.append(run_workload(platform, pfs, IORWorkload(cfg, 2)).duration)
        return out

    small = times(128 * KiB)
    large = times(2 * MiB)
    assert describe(small).mean > describe(large).mean
    result = t_test(small, large)
    assert result.significant  # the difference is not noise


def test_dxt_and_endtoend_on_same_run():
    """Multiple monitors coexist on one run without interfering."""
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    e2e = EndToEndMonitor(pfs, sample_interval=0.05)
    e2e.start()
    dxt = DXTTracer()
    profiler = e2e.new_job_profiler("combo", n_ranks=2)
    w = IORWorkload(IORConfig(block_size=4 * MiB, transfer_size=512 * KiB), 2)
    run_workload(platform, pfs, w, observers=[profiler, dxt])
    profile = e2e.finish_job(profiler, n_ranks=2)
    assert len(dxt.segments()) == profile.job.writes
    report = e2e.report()
    assert report.rows[0].bytes_written == 8 * MiB
