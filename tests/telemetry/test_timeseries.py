"""Unit tests for simulation-clock time series and DES probes."""

import pytest

from repro import telemetry
from repro.des.engine import Environment
from repro.telemetry import TELEMETRY
from repro.telemetry.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesRegistry,
    TimeSeries,
    attach_probe,
    value_stats,
)


class TestTimeSeries:
    def test_record_and_stats(self):
        ts = TimeSeries("q", unit="reqs")
        for i in range(10):
            ts.record(i * 0.1, float(i))
        assert len(ts) == 10
        s = value_stats(ts.values)
        assert s["count"] == 10
        assert s["min"] == 0.0 and s["max"] == 9.0
        assert s["mean"] == pytest.approx(4.5)
        assert s["last"] == 9.0

    def test_empty_stats(self):
        assert value_stats(TimeSeries("x").values) == {"count": 0}

    def test_p99_nearest_rank(self):
        ts = TimeSeries("x")
        for i in range(100):
            ts.record(i, float(i))
        # ceil(0.99 * 100) = 99 -> index 98.
        assert value_stats(ts.values)["p99"] == 98.0

    def test_decimation_bounds_memory(self):
        ts = TimeSeries("x", max_points=8)
        for i in range(10_000):
            ts.record(i, float(i))
        assert len(ts) < 8
        # Still spans the timeline: first sample kept, last within a
        # couple of strides of the end.
        assert ts.times[0] == 0.0
        assert ts.times[-1] >= 10_000 - 2 * ts._stride

    def test_decimation_doubles_stride(self):
        ts = TimeSeries("x", max_points=4)
        for i in range(4):
            ts.record(i, i)
        assert ts._stride == 2  # hit the cap once
        for i in range(4, 12):
            ts.record(i, i)
        assert ts._stride >= 4

    def test_max_points_floor(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_points=2)


class TestSeriesRegistry:
    def test_get_or_create(self):
        reg = SeriesRegistry()
        a = reg.series("a", "ms")
        assert reg.series("a") is a
        assert len(reg) == 1
        assert a.unit == "ms"

    def test_to_dict_sorted_by_name(self):
        reg = SeriesRegistry()
        reg.record("b", 0.0, 1.0)
        reg.record("a", 0.0, 2.0)
        doc = reg.to_dict()
        assert doc["schema"] == TIMESERIES_SCHEMA
        assert [s["name"] for s in doc["series"]] == ["a", "b"]

    def test_merge_interleaves_by_time(self):
        a = SeriesRegistry()
        a.record("q", 0.0, 1.0)
        a.record("q", 2.0, 3.0)
        b = SeriesRegistry()
        b.record("q", 1.0, 2.0)
        a.merge(b.to_dict())
        assert a.series("q").times == [0.0, 1.0, 2.0]
        assert a.series("q").values == [1.0, 2.0, 3.0]

    def test_merge_order_independent(self):
        docs = []
        for start in (0, 1, 2):
            r = SeriesRegistry()
            for i in range(5):
                r.record("q", start + i * 3, float(start))
            docs.append(r.to_dict())

        merged = []
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            reg = SeriesRegistry()
            for k in order:
                reg.merge(docs[k])
            merged.append(reg.to_dict())
        assert merged[0] == merged[1] == merged[2]

    def test_merge_respects_cap(self):
        reg = SeriesRegistry(max_points=8)
        other = SeriesRegistry(max_points=8)
        for i in range(6):
            reg.record("q", i, i)
            other.record("q", i + 0.5, i)
        reg.merge(other.to_dict())
        assert len(reg.series("q")) < 8


class TestProbe:
    def _busy_proc(self, env, until):
        while env.now < until:
            yield env.timeout(0.05)

    def test_probe_samples_at_interval_and_stops_when_idle(self):
        telemetry.enable()
        env = Environment()
        env.process(self._busy_proc(env, 1.0))
        attach_probe(env, [("t", "", lambda: 1.0)], 0.1)
        env.run()  # run-to-empty must terminate despite the probe
        ts = TELEMETRY.series.series("t")
        assert len(ts) >= 10
        assert ts.times[0] == 0.0
        assert ts.times[-1] <= env.now

    def test_probe_noop_when_disabled(self):
        env = Environment()
        assert attach_probe(env, [("t", "", lambda: 0.0)], 0.1) is None
        env.run()
        assert len(TELEMETRY.series) == 0

    def test_probe_requires_positive_interval(self):
        telemetry.enable()
        env = Environment()
        with pytest.raises(ValueError):
            attach_probe(env, [("t", "", lambda: 0.0)], 0.0)

    def test_probe_without_samplers_is_noop(self):
        telemetry.enable()
        env = Environment()
        assert attach_probe(env, [], 0.1) is None
