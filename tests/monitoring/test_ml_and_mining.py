"""Unit tests for the ML-aware profiler and the profile miner."""

import pytest

from repro.cluster import tiny_cluster
from repro.monitoring import DarshanProfiler, MLIOProfiler, ProfileMiner
from repro.ops import IORecord, OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import (
    CheckpointConfig,
    CheckpointWorkload,
    DLIOConfig,
    DLIOWorkload,
    MdtestConfig,
    MdtestWorkload,
    OpStreamWorkload,
)

MiB = 1024 * 1024
KiB = 1024


def run_dlio(epochs=2, read_cache=0):
    platform = tiny_cluster()
    pfs = build_pfs(platform)
    dlio = DLIOWorkload(
        DLIOConfig(n_samples=128, sample_bytes=64 * KiB, n_shards=4,
                   batch_size=8, epochs=epochs, compute_per_batch=0.01),
        n_ranks=4,
    )
    gen = OpStreamWorkload("gen", [list(dlio.generation_ops(r)) for r in range(4)])
    run_workload(platform, pfs, gen)
    ml = MLIOProfiler()
    run_workload(platform, pfs, dlio, observers=[ml], read_cache_bytes=read_cache)
    return ml, dlio


class TestMLIOProfiler:
    def test_epochs_and_steps_sliced(self):
        ml, dlio = run_dlio(epochs=2)
        assert [es.epoch for es in ml.epochs()] == [0, 1]
        per_epoch = dlio.bytes_read_per_epoch
        for es in ml.epochs():
            assert es.bytes_read == per_epoch

    def test_stall_fraction_bounded(self):
        ml, _ = run_dlio()
        assert 0.0 < ml.stall_fraction(0) <= 1.0

    def test_cache_shows_in_epoch_trend(self):
        """A dataset-sized cache makes epoch 2 reads much cheaper."""
        ml_cold, _ = run_dlio(epochs=2, read_cache=0)
        ml_warm, _ = run_dlio(epochs=2, read_cache=64 * MiB)
        assert ml_cold.epoch_speedup_trend() < 1.5  # steady-state cold
        assert ml_warm.epoch_speedup_trend() > 3.0  # warm epoch 2

    def test_untagged_traffic_counted_separately(self):
        ml = MLIOProfiler()
        ml(IORecord("posix", OpKind.WRITE, "/ckpt", 0, MiB, 0, 0.0, 0.1))
        assert ml.untagged_bytes == MiB
        assert ml.epochs() == []

    def test_report_format(self):
        ml, _ = run_dlio()
        text = ml.report()
        assert "epoch" in text and "stall" in text

    def test_errors(self):
        ml = MLIOProfiler()
        with pytest.raises(KeyError):
            ml.stall_fraction(0)
        with pytest.raises(ValueError):
            ml.epoch_speedup_trend()


def make_fleet():
    """A small fleet: one bandwidth job, one metadata job, one DL job."""
    profiles = []
    platform = tiny_cluster()
    pfs = build_pfs(platform)

    p1 = DarshanProfiler(job_name="checkpoint")
    run_workload(platform, pfs, CheckpointWorkload(
        CheckpointConfig(bytes_per_rank=8 * MiB, steps=2, compute_seconds=0.1,
                         fsync=False), 4), observers=[p1])
    profiles.append(p1.profile(n_ranks=4))

    p2 = DarshanProfiler(job_name="mdtest")
    run_workload(platform, pfs, MdtestWorkload(
        MdtestConfig(files_per_rank=16, dir_prefix="/md2"), 2), observers=[p2])
    profiles.append(p2.profile(n_ranks=2))

    dlio = DLIOWorkload(
        DLIOConfig(n_samples=128, sample_bytes=16 * KiB, n_shards=2,
                   batch_size=8, compute_per_batch=0.0, data_dir="/dl2"),
        n_ranks=4,
    )
    gen = OpStreamWorkload("gen", [list(dlio.generation_ops(r)) for r in range(4)])
    run_workload(platform, pfs, gen)
    p3 = DarshanProfiler(job_name="dlio")
    run_workload(platform, pfs, dlio, observers=[p3])
    profiles.append(p3.profile(n_ranks=4))
    return ProfileMiner(profiles)


class TestProfileMiner:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            ProfileMiner().report()

    def test_totals_and_read_share(self):
        miner = make_fleet()
        totals = miner.total_bytes()
        assert totals["written"] > 0 and totals["read"] > 0
        assert 0.0 < miner.platform_read_share() < 1.0

    def test_top_talkers_by_bytes_and_meta(self):
        miner = make_fleet()
        assert miner.top_talkers(1, by="bytes")[0].job_name == "checkpoint"
        assert miner.top_talkers(1, by="meta")[0].job_name == "mdtest"
        with pytest.raises(ValueError):
            miner.top_talkers(by="vibes")

    def test_small_access_screen_flags_dlio(self):
        miner = make_fleet()
        names = {p.job_name for p in miner.small_access_jobs(threshold=64 * KiB)}
        assert "dlio" in names
        assert "checkpoint" not in names

    def test_write_intensive_fraction(self):
        miner = make_fleet()
        # checkpoint+mdtest write-lean vs dlio read-heavy: fraction in (0,1).
        frac = miner.write_intensive_fraction()
        assert 0.0 < frac < 1.0

    def test_correlation(self):
        miner = make_fleet()
        r = miner.correlate("bytes", "io_time")
        assert -1.0 <= r <= 1.0
        with pytest.raises(ValueError):
            miner.correlate("bytes", "vibes")
        with pytest.raises(ValueError):
            ProfileMiner([miner.profiles[0]]).correlate("bytes", "io_time")

    def test_aggregate_histogram_and_report(self):
        miner = make_fleet()
        text = miner.report()
        assert "fleet: 3 jobs" in text
        assert "top talkers" in text
