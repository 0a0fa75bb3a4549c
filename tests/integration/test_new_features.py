"""Tests for the extension batch: topologies, DSL metadata modes and
trace-based cycle generation."""

import pytest

from repro.cluster import Platform, PlatformSpec, tiny_cluster
from repro.core.cycle import EvaluationCycle
from repro.ops import OpKind
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.wgen import parse_workload
from repro.workloads import IORConfig, IORWorkload

MiB = 1024 * 1024
KiB = 1024


class TestFabricTopology:
    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            Platform(PlatformSpec(ib_topology="torus"))

    def test_fat_tree_platform_builds_and_maps_nodes(self):
        p = Platform(PlatformSpec(n_compute=8, n_io=1, ib_topology="fat_tree"))
        fab = p.compute_fabric
        assert fab.topology is not None
        assert "c0" in fab.topology_map and "io0" in fab.topology_map
        # Latency now depends on topological distance, not a constant.
        lat_near = fab.latency("c0", "c1")
        lats = {fab.latency("c0", f"c{i}") for i in range(1, 8)}
        assert len(lats) > 1  # non-uniform
        assert min(lats) == lat_near

    def test_dragonfly_platform_builds(self):
        p = Platform(PlatformSpec(n_compute=12, n_io=2, ib_topology="dragonfly"))
        assert p.compute_fabric.topology is not None
        assert len(p.compute_fabric.topology_map) == 14

    def test_default_platform_has_uniform_latency(self):
        p = Platform(PlatformSpec(n_compute=8))
        fab = p.compute_fabric
        lats = {fab.latency("c0", f"c{i}") for i in range(1, 8)}
        assert len(lats) == 1

    def test_topology_platform_runs_workloads(self):
        p = Platform(PlatformSpec(n_compute=4, n_io=1, ib_topology="fat_tree"))
        pfs = build_pfs(p)
        w = IORWorkload(IORConfig(block_size=2 * MiB, transfer_size=MiB), 4)
        result = run_workload(p, pfs, w)
        assert result.bytes_written == 8 * MiB


class TestDSLMetadataModes:
    def test_fpp_metadata_targets_rank_file(self):
        w = parse_workload(
            'workload t { ranks 2; create fpp "/x"; close fpp "/x"; '
            'stat fpp "/x"; unlink fpp "/x"; }'
        )
        ops1 = list(w.ops(1))
        stat = next(op for op in ops1 if op.kind == OpKind.STAT)
        unlink = next(op for op in ops1 if op.kind == OpKind.UNLINK)
        assert stat.path == "/x.00000001"
        assert unlink.path == "/x.00000001"

    def test_fpp_mdtest_cycle_runs_cleanly(self):
        text = """
        workload md {
            ranks 2;
            mkdir "/m";
            loop 4 as i {
                create fpp "/m/f${i}";
                close fpp "/m/f${i}";
            }
            barrier;
            loop 4 as i {
                unlink fpp "/m/f${i}";
            }
        }
        """
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        run_workload(platform, pfs, parse_workload(text))
        assert pfs.namespace.listdir("/m") == []

    def test_shared_mode_is_literal(self):
        w = parse_workload('workload t { ranks 2; stat shared "/y"; }')
        stat = next(op for op in w.ops(1) if op.kind == OpKind.STAT)
        assert stat.path == "/y"


class TestTraceGeneratorCycle:
    def make(self, generator):
        return EvaluationCycle(
            platform_factory=tiny_cluster,
            workload_factory=lambda: IORWorkload(
                IORConfig(block_size=2 * MiB, transfer_size=512 * KiB), 2
            ),
            include_think_time=False,
            generator=generator,
        )

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError):
            self.make("wishes")

    def test_trace_generator_reproduces_exactly(self):
        report = self.make("trace").run_iteration()
        assert report.bytes_error == pytest.approx(0.0)
        # Replay of the exact trace is tighter than counter synthesis.
        assert report.duration_error < 0.5

    def test_trace_beats_or_matches_profile_fidelity(self):
        trace_rep = self.make("trace").run_iteration()
        profile_rep = self.make("profile").run_iteration()
        assert trace_rep.duration_error <= profile_rep.duration_error + 0.25
