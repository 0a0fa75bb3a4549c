"""Unit tests for load-aware allocation and device fault injection."""

import pytest

from repro.cluster import tiny_cluster
from repro.cluster.devices import BlockDevice
from repro.des import Environment
from repro.monitoring import ServerStatsCollector
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import IORConfig, IORWorkload, OpStreamWorkload
from repro.ops import IOOp, OpKind

MiB = 1024 * 1024


class TestLoadAwareAllocation:
    def test_policy_validation(self):
        platform = tiny_cluster()
        with pytest.raises(ValueError):
            build_pfs(platform, alloc_policy="psychic")

    def test_round_robin_ignores_load(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)  # default round_robin
        a = pfs.new_layout(stripe_count=1)
        b = pfs.new_layout(stripe_count=1)
        assert a.ost_ids != b.ost_ids  # cursor advances regardless of load

    def test_load_aware_prefers_idle_osts(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform, alloc_policy="load_aware")

        # Load OST 0 heavily via a file pinned there.
        def loader(env):
            client = pfs.client("c0")
            pfs._alloc_cursor = 0  # irrelevant for load_aware; harmless
            yield from client.create("/hot", stripe_count=1)
            yield from client.write("/hot", 0, 32 * MiB)

        platform.env.process(loader(platform.env))
        platform.env.run()
        hot_ost = pfs.namespace.lookup("/hot").layout.ost_ids[0]

        layout = pfs.new_layout(stripe_count=2)
        assert hot_ost not in layout.ost_ids

    def test_load_aware_reduces_imbalance_for_skewed_files(self):
        """iez-style claim: load-aware placement balances skewed file sizes."""

        def run_policy(policy):
            platform = tiny_cluster()
            pfs = build_pfs(platform, alloc_policy=policy)
            # Alternating big/small stripe-1 files: round-robin pins every
            # big file to the same OST phase; load-aware adapts.
            sizes = [32 * MiB if i % 2 == 0 else 1 * MiB for i in range(8)]
            ops = []
            for i, size in enumerate(sizes):
                ops.append(IOOp(OpKind.CREATE, f"/f{i}", meta={"stripe_count": 1}))
                ops.append(IOOp(OpKind.WRITE, f"/f{i}", offset=0, nbytes=size))
                ops.append(IOOp(OpKind.CLOSE, f"/f{i}"))
            run_workload(platform, pfs, OpStreamWorkload("skew", [ops]))
            per_ost = [
                pfs.ost_device(i).stats.bytes_written for i in range(pfs.n_osts)
            ]
            mean = sum(per_ost) / len(per_ost)
            return max(per_ost) / mean

        rr = run_policy("round_robin")
        la = run_policy("load_aware")
        assert la < rr
        assert la < 1.2  # near-perfect byte balance

    def test_ost_load_metric(self):
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        assert pfs.ost_load(0) == 0.0
        with pytest.raises(KeyError):
            pfs.ost_load(99)


class TestFaultInjection:
    def test_degradation_validation(self):
        env = Environment()
        dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0)
        with pytest.raises(ValueError):
            dev.set_degradation(0.5)
        healthy = BlockDevice(env, "h", bandwidth=100.0, seek_time=0.0)
        assert dev.service_time(0, 100) == healthy.service_time(0, 100)

    def test_degraded_device_slower(self):
        env = Environment()
        dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0)
        dev.set_degradation(4.0)

        def proc(env):
            dt = yield from dev.access(0, 100, True)
            return dt

        p = env.process(proc(env))
        env.run()
        assert p.value == pytest.approx(4.0)  # 1s healthy -> 4s degraded
        assert dev.service_time(0, 100) == pytest.approx(4.0)

    def test_recovery(self):
        env = Environment()
        dev = BlockDevice(env, "d", bandwidth=100.0, seek_time=0.0)
        dev.set_degradation(10.0)
        dev.set_degradation(1.0)
        assert dev.service_time(0, 100) == pytest.approx(1.0)

    def test_straggler_ost_visible_in_job_and_server_stats(self):
        """The monitoring story: a degraded OST slows striped jobs and
        shows up as a utilisation outlier -- what server-side statistics
        exist to catch."""

        def run_with(degraded):
            platform = tiny_cluster()
            pfs = build_pfs(platform)
            if degraded:
                pfs.ost_device(0).set_degradation(8.0)
            w = IORWorkload(
                IORConfig(block_size=8 * MiB, transfer_size=MiB, stripe_count=-1),
                4,
            )
            result = run_workload(platform, pfs, w)
            busy = {
                ost: pfs.ost_device(ost).stats.busy_time
                for ost in range(pfs.n_osts)
            }
            return result.duration, busy

        healthy_t, _ = run_with(False)
        degraded_t, busy = run_with(True)
        assert degraded_t > healthy_t * 2  # the straggler gates the job
        # The degraded OST's busy time is the outlier.
        assert busy[0] > 3 * max(v for k, v in busy.items() if k != 0)
