"""Unit tests for the self-telemetry metrics registry."""

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS_SCHEMA,
    MetricsRegistry,
    _MAX_EXP,
    _MIN_EXP,
)


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_high_water(self):
        g = Gauge("x")
        g.set(5)
        g.update_max(3)
        assert g.value == 5
        g.update_max(9)
        assert g.value == 9


class TestHistogram:
    def test_log2_buckets_exact_powers_own_bucket(self):
        h = Histogram("x")
        h.observe(4.0)  # exactly 2**2 -> bucket e=2 (range (2, 4])
        h.observe(3.0)  # (2, 4] -> e=2
        h.observe(5.0)  # (4, 8] -> e=3
        assert h.buckets == {2: 2, 3: 1}
        assert h.count == 3
        assert h.vmin == 3.0 and h.vmax == 5.0
        assert h.mean == pytest.approx(4.0)

    def test_zero_and_negative_underflow(self):
        h = Histogram("x")
        h.observe(0.0)
        h.observe(-1.0)
        assert h.zero_count == 2
        assert h.buckets == {}
        assert h.vmin == 0.0 and h.vmax == 0.0

    def test_exponent_clamping(self):
        h = Histogram("x")
        h.observe(1e-300)  # below 2**_MIN_EXP
        h.observe(1e300)  # above 2**_MAX_EXP
        assert set(h.buckets) == {_MIN_EXP, _MAX_EXP}

    def test_to_dict_stringifies_bucket_keys(self):
        h = Histogram("x")
        h.observe(2.0)
        d = h.to_dict()
        assert d["buckets"] == {"1": 1}
        assert d["mean"] == pytest.approx(2.0)

    def test_render_empty(self, capsys):
        # The one renderer (``repro-io telemetry``) shows an empty
        # histogram as n=0.
        from repro.cli.telemetry import _summarize_metrics

        _summarize_metrics({"metrics": {"x": Histogram("x").to_dict()}}, 10)
        assert "n=0" in capsys.readouterr().out


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_to_dict_sorted_with_schema(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.gauge").set(1.5)
        reg.histogram("c.hist").observe(3.0)
        d = reg.to_dict()
        assert d["schema"] == METRICS_SCHEMA
        assert list(d["metrics"]) == ["a.gauge", "b.count", "c.hist"]
        assert d["metrics"]["b.count"] == {"kind": "counter", "value": 2}

    def test_clear_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.counter("b")
        assert {m.name for m in reg} == {"a", "b"}
        reg.clear()
        assert len(reg) == 0
