"""Unit tests for mdtest, checkpoint, DLIO, analytics and facility workloads."""

import pytest

from repro.cluster import tiny_cluster
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import (
    AnalyticsConfig,
    AnalyticsWorkload,
    CheckpointConfig,
    CheckpointWorkload,
    DLIOConfig,
    DLIOWorkload,
    FacilityConfig,
    FacilityIngestWorkload,
    MdtestConfig,
    MdtestWorkload,
    OpStreamWorkload,
)

MiB = 1024 * 1024
KiB = 1024


def make_system():
    platform = tiny_cluster()
    return platform, build_pfs(platform)


class TestMdtest:
    def test_validation(self):
        with pytest.raises(ValueError):
            MdtestConfig(files_per_rank=0).validate()
        with pytest.raises(ValueError):
            MdtestConfig(write_bytes=2, read_bytes=5).validate()

    def test_full_cycle_leaves_clean_namespace(self):
        platform, pfs = make_system()
        w = MdtestWorkload(MdtestConfig(files_per_rank=8), n_ranks=4)
        result = run_workload(platform, pfs, w)
        assert pfs.namespace.n_files == 0
        # Root dir remains, rank dirs removed.
        assert pfs.namespace.listdir("/mdtest") == []
        assert result.meta_ops > 4 * 8 * 3  # create+stat+unlink at least

    def test_metadata_dominates(self):
        platform, pfs = make_system()
        w = MdtestWorkload(MdtestConfig(files_per_rank=16), n_ranks=2)
        result = run_workload(platform, pfs, w)
        assert result.bytes_written == 0
        assert result.meta_ops >= 16 * 2 * 3  # create+stat+unlink per file

    def test_optional_data_phase(self):
        platform, pfs = make_system()
        w = MdtestWorkload(
            MdtestConfig(files_per_rank=4, write_bytes=4 * KiB, read_bytes=4 * KiB),
            n_ranks=2,
        )
        result = run_workload(platform, pfs, w)
        assert result.bytes_written == 2 * 4 * 4 * KiB
        assert result.bytes_read == 2 * 4 * 4 * KiB


class TestCheckpoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(steps=0).validate()
        with pytest.raises(ValueError):
            CheckpointConfig(compute_seconds=-1).validate()

    def test_fpp_checkpoint_volume(self):
        platform, pfs = make_system()
        cfg = CheckpointConfig(
            bytes_per_rank=4 * MiB, steps=2, compute_seconds=0.1, fsync=False
        )
        w = CheckpointWorkload(cfg, n_ranks=4)
        result = run_workload(platform, pfs, w)
        assert result.bytes_written == w.total_bytes == 32 * MiB
        assert pfs.namespace.n_files == 8  # 4 ranks x 2 steps

    def test_shared_file_checkpoint(self):
        platform, pfs = make_system()
        cfg = CheckpointConfig(
            bytes_per_rank=2 * MiB, steps=1, file_per_process=False,
            compute_seconds=0.0, fsync=False,
        )
        w = CheckpointWorkload(cfg, n_ranks=4)
        run_workload(platform, pfs, w)
        assert pfs.namespace.n_files == 1
        assert pfs.namespace.lookup("/ckpt.0000").size == 8 * MiB

    def test_restart_reads_back(self):
        platform, pfs = make_system()
        cfg = CheckpointConfig(
            bytes_per_rank=2 * MiB, steps=1, restart=True, compute_seconds=0.0,
            fsync=False,
        )
        w = CheckpointWorkload(cfg, n_ranks=2)
        result = run_workload(platform, pfs, w)
        assert result.bytes_read == 4 * MiB

    def test_compute_time_contributes(self):
        platform, pfs = make_system()
        cfg = CheckpointConfig(bytes_per_rank=MiB, steps=3, compute_seconds=2.0, fsync=False)
        result = run_workload(platform, pfs, CheckpointWorkload(cfg, 2))
        assert result.duration >= 6.0


class TestDLIO:
    def test_validation(self):
        with pytest.raises(ValueError):
            DLIOConfig(n_samples=0).validate()
        with pytest.raises(ValueError):
            DLIOConfig(n_shards=100, n_samples=10).validate()
        with pytest.raises(ValueError):
            DLIOWorkload(DLIOConfig(batch_size=10), n_ranks=3)

    def make(self, **kw):
        defaults = dict(
            n_samples=64, sample_bytes=64 * KiB, n_shards=4, batch_size=8,
            epochs=1, compute_per_batch=0.0,
        )
        defaults.update(kw)
        return DLIOWorkload(DLIOConfig(**defaults), n_ranks=4)

    def test_sample_location_mapping(self):
        w = self.make()
        path, off = w.sample_location(0)
        assert path.endswith("shard00000.rec") and off == 0
        path, off = w.sample_location(17)
        assert path.endswith("shard00001.rec")
        with pytest.raises(ValueError):
            w.sample_location(9999)

    def test_epoch_order_is_shuffled_and_seeded(self):
        w = self.make()
        o1 = w.epoch_order(0)
        o2 = w.epoch_order(0)
        o3 = w.epoch_order(1)
        assert (o1 == o2).all()
        assert not (o1 == o3).all()
        assert sorted(o1) == list(range(64))

    def test_no_shuffle_is_sequential(self):
        w = self.make(shuffle=False)
        assert list(w.epoch_order(0)) == list(range(64))

    def test_training_reads_whole_dataset_per_epoch(self):
        platform, pfs = make_system()
        w = self.make()
        gen = OpStreamWorkload(
            "dlio-gen", [list(w.generation_ops(r)) for r in range(4)]
        )
        run_workload(platform, pfs, gen)
        result = run_workload(platform, pfs, w)
        assert result.bytes_read == w.bytes_read_per_epoch == 64 * 64 * KiB

    def test_checkpoint_written_by_rank0(self):
        platform, pfs = make_system()
        w = self.make(checkpoint_epochs=1, model_bytes=MiB)
        gen = OpStreamWorkload(
            "dlio-gen", [list(w.generation_ops(r)) for r in range(4)]
        )
        run_workload(platform, pfs, gen)
        result = run_workload(platform, pfs, w)
        assert result.bytes_written == MiB
        assert pfs.namespace.is_file("/dlio/model.ckpt.0000")

    def test_random_reads_dominate(self):
        """The signature of Sec. V-B: mostly small random reads."""
        w = self.make()
        reads = [op for op in w.ops(0) if op.kind == OpKind.READ]
        offsets = [op.offset for op in reads]
        assert len(reads) == 16  # 64 samples / batch 8 / 4 ranks * 8 steps
        assert offsets != sorted(offsets)  # non-sequential


class TestAnalytics:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticsConfig(shuffle_fraction=1.5).validate()

    def test_three_stage_volumes(self):
        platform, pfs = make_system()
        cfg = AnalyticsConfig(
            input_bytes=32 * MiB, shuffle_fraction=0.5, output_fraction=0.25,
            compute_per_mb=0.0,
        )
        w = AnalyticsWorkload(cfg, n_ranks=4)
        gen = OpStreamWorkload(
            "prep", [list(w.generation_ops(r)) for r in range(4)]
        )
        run_workload(platform, pfs, gen)
        result = run_workload(platform, pfs, w)
        # Reads: full scan + shuffle fetch.
        assert result.bytes_read > 32 * MiB
        # Spill files were cleaned up.
        assert all("spill" not in f for f in pfs.namespace.listdir(cfg.work_dir))

    def test_shuffle_creates_n_squared_files(self):
        w = AnalyticsWorkload(AnalyticsConfig(), n_ranks=4)
        creates = [
            op for op in w.ops(0)
            if op.kind == OpKind.CREATE and "spill" in op.path
        ]
        assert len(creates) == 4  # one per reducer, per mapper rank
        assert w.shuffle_files_total == 16


class TestFacility:
    def test_validation(self):
        with pytest.raises(ValueError):
            FacilityConfig(bursts=0).validate()

    def test_ingest_volume_and_lag(self):
        platform, pfs = make_system()
        cfg = FacilityConfig(
            frame_bytes=MiB, frames_per_burst=4, bursts=2,
            frame_interval=0.001, burst_gap=0.1,
        )
        w = FacilityIngestWorkload(cfg, n_ranks=2)
        result = run_workload(platform, pfs, w)
        assert result.bytes_written == w.total_bytes == 16 * MiB
        assert w.ingest_lag(result.duration) >= 0.0
        assert w.acquisition_seconds == pytest.approx(2 * 4 * 0.001 + 0.1)

    def test_detector_rate(self):
        cfg = FacilityConfig(frame_bytes=4 * MiB, frame_interval=0.01)
        assert cfg.detector_rate == pytest.approx(400 * MiB)
