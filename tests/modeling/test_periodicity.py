"""Unit tests for I/O periodicity detection."""

import numpy as np
import pytest

from repro.cluster import tiny_cluster
from repro.modeling.periodicity import detect_period
from repro.monitoring import DXTTracer
from repro.pfs import build_pfs
from repro.simulate import run_workload
from repro.workloads import CheckpointConfig, CheckpointWorkload

MiB = 1024 * 1024


class TestDetectPeriod:
    def test_perfectly_periodic_bursts(self):
        times = []
        for burst in range(20):
            base = burst * 10.0
            times.extend(base + 0.01 * i for i in range(8))
        est = detect_period(times)
        assert est.is_periodic
        assert est.period == pytest.approx(10.0, rel=0.15)
        assert est.confidence > 0.5

    def test_poisson_stream_not_periodic(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(1.0, size=400))
        est = detect_period(times)
        assert not est.is_periodic

    def test_too_few_events(self):
        est = detect_period([1.0, 2.0])
        assert not est.is_periodic
        assert est.n_events == 2

    def test_zero_span(self):
        est = detect_period([5.0] * 10)
        assert not est.is_periodic

    def test_checkpoint_workload_period_recovered(self):
        """End to end: the simulated checkpoint cadence is detected from
        the DXT write-segment timestamps."""
        platform = tiny_cluster()
        pfs = build_pfs(platform)
        dxt = DXTTracer()
        w = CheckpointWorkload(
            CheckpointConfig(bytes_per_rank=4 * MiB, steps=8,
                             compute_seconds=5.0, fsync=False),
            n_ranks=2,
        )
        run_workload(platform, pfs, w, observers=[dxt])
        times = [s.start for s in dxt.segments() if s.kind == "write"]
        est = detect_period(times)
        assert est.is_periodic
        # The cadence is compute (5 s) + write time: period a bit over 5 s.
        assert 4.0 < est.period < 8.0
