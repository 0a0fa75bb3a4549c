"""Unit tests for server stats, FSMonitor, scheduler log and end-to-end."""

from collections import Counter

import pytest

from repro.cluster import tiny_cluster
from repro.cluster.scheduler_log import SchedulerLog
from repro.monitoring import (
    EndToEndMonitor,
    FSMonitor,
    ServerStatsCollector,
)
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import (
    IORConfig,
    IORWorkload,
    MdtestConfig,
    MdtestWorkload,
)

MiB = 1024 * 1024


def make_system():
    platform = tiny_cluster()
    return platform, build_pfs(platform)


class TestServerStats:
    def test_sampling_collects_series(self):
        platform, pfs = make_system()
        collector = ServerStatsCollector(pfs, interval=0.05)
        collector.start()
        w = IORWorkload(IORConfig(block_size=8 * MiB, transfer_size=MiB), 4)
        run_workload(platform, pfs, w)
        assert len(collector.samples) > 0
        assert set(collector.servers()) == {"mds0", "oss0", "oss1"}

    def test_load_imbalance_balanced_for_wide_stripes(self):
        platform, pfs = make_system()
        collector = ServerStatsCollector(pfs, interval=0.05)
        collector.start()
        w = IORWorkload(IORConfig(block_size=8 * MiB, transfer_size=MiB, stripe_count=-1), 4)
        run_workload(platform, pfs, w)
        assert collector.load_imbalance("oss") < 1.5

    def test_interval_validation(self):
        platform, pfs = make_system()
        with pytest.raises(ValueError):
            ServerStatsCollector(pfs, interval=0)

    def test_mean_utilization_range(self):
        platform, pfs = make_system()
        collector = ServerStatsCollector(pfs, interval=0.05)
        collector.start()
        w = IORWorkload(IORConfig(block_size=4 * MiB, transfer_size=MiB), 2)
        run_workload(platform, pfs, w)
        assert collector.samples
        assert all(0.0 <= s.utilization <= 1.0 for s in collector.samples)


class TestFSMonitor:
    def test_captures_mutating_events(self):
        platform, pfs = make_system()
        mon = FSMonitor(pfs)
        w = MdtestWorkload(MdtestConfig(files_per_rank=8), 2)
        run_workload(platform, pfs, w)
        counts = Counter(e.kind for e in mon.events)
        assert counts[OpKind.CREATE] == 16
        assert counts[OpKind.UNLINK] == 16
        assert counts[OpKind.MKDIR] == 3  # root + 2 rank dirs
        assert OpKind.STAT not in counts  # non-mutating excluded by default

    def test_include_reads_mode(self):
        platform, pfs = make_system()
        mon = FSMonitor(pfs, include_reads=True)
        w = MdtestWorkload(MdtestConfig(files_per_rank=4, do_unlink=False), 2)
        run_workload(platform, pfs, w)
        assert any(e.kind is OpKind.STAT for e in mon.events)

    def test_hot_directories(self):
        platform, pfs = make_system()
        mon = FSMonitor(pfs)
        w = MdtestWorkload(MdtestConfig(files_per_rank=8, do_unlink=False), 2)
        run_workload(platform, pfs, w)
        hot = mon.hot_directories(top=2)
        assert len(hot) == 2
        assert all("/mdtest/rank" in d for d, _ in hot)

    def test_event_rate_and_burstiness(self):
        platform, pfs = make_system()
        mon = FSMonitor(pfs)
        w = MdtestWorkload(MdtestConfig(files_per_rank=16), 2)
        run_workload(platform, pfs, w)
        assert len(mon) > 0
        assert mon.burstiness(bin_seconds=0.001) >= 0.0

    def test_empty_monitor(self):
        platform, pfs = make_system()
        mon = FSMonitor(pfs)
        assert len(mon) == 0
        assert mon.burstiness() == 0.0


class TestSchedulerLog:
    def test_submit_complete_query(self):
        log = SchedulerLog()
        j1 = log.submit("ior", "alice", 4, 16, submit_time=0.0, start_time=1.0)
        j2 = log.submit("dlio", "bob", 2, 8, submit_time=0.5)
        log.complete(j1.job_id, end_time=10.0)
        assert len(log) == 2
        assert log.job(j1.job_id).elapsed == 9.0
        assert j1.wait_time == 1.0
        assert log.jobs() == [j1, j2]

    def test_concurrent_with(self):
        log = SchedulerLog()
        a = log.submit("a", "u", 1, 1, submit_time=0.0)
        b = log.submit("b", "u", 1, 1, submit_time=2.0)
        c = log.submit("c", "u", 1, 1, submit_time=20.0)
        log.complete(a.job_id, end_time=5.0)
        log.complete(b.job_id, end_time=6.0)
        log.complete(c.job_id, end_time=25.0)
        assert [j.job_id for j in log.concurrent_with(a.job_id)] == [b.job_id]
        assert log.concurrent_with(c.job_id) == []

    def test_validation(self):
        log = SchedulerLog()
        with pytest.raises(ValueError):
            log.submit("x", "u", 0, 1, submit_time=0)
        with pytest.raises(KeyError):
            log.complete(99, end_time=1.0)
        with pytest.raises(KeyError):
            log.job(99)

class TestEndToEnd:
    def test_panel_joins_all_sources(self):
        platform, pfs = make_system()
        e2e = EndToEndMonitor(pfs, sample_interval=0.05)
        e2e.start()

        p1 = e2e.new_job_profiler("ior", n_ranks=4)
        run_workload(platform, pfs, IORWorkload(IORConfig(block_size=4 * MiB, transfer_size=MiB), 4), observers=[p1])
        e2e.finish_job(p1, n_ranks=4)

        p2 = e2e.new_job_profiler("mdtest", n_ranks=2)
        run_workload(platform, pfs, MdtestWorkload(MdtestConfig(files_per_rank=8), 2), observers=[p2])
        e2e.finish_job(p2, n_ranks=2)

        report = e2e.report()
        assert len(report.rows) == 2
        ior_row = report.rows[0]
        md_row = report.rows[1]
        assert ior_row.bytes_written == 16 * MiB
        assert md_row.metadata_events > ior_row.metadata_events
        panel = report.panel()
        assert "ior" in panel and "mdtest" in panel

    def test_finish_requires_registered_profiler(self):
        platform, pfs = make_system()
        e2e = EndToEndMonitor(pfs)
        from repro.monitoring import DarshanProfiler

        with pytest.raises(ValueError):
            e2e.finish_job(DarshanProfiler())
