"""Unit tests for interference analysis helpers."""

import pytest

from repro.pfs import SlowdownReport, StripeLayout, ost_overlap


def test_ost_overlap_disjoint():
    a = StripeLayout(100, [0, 1])
    b = StripeLayout(100, [2, 3])
    assert ost_overlap(a, b) == 0.0


def test_ost_overlap_identical():
    a = StripeLayout(100, [0, 1])
    assert ost_overlap(a, a) == 1.0


def test_ost_overlap_partial():
    a = StripeLayout(100, [0, 1])
    b = StripeLayout(100, [1, 2])
    assert ost_overlap(a, b) == pytest.approx(1 / 3)


def test_slowdown_report_basic():
    r = SlowdownReport(alone={"a": 10.0, "b": 5.0}, together={"a": 20.0, "b": 5.0})
    assert r.slowdown("a") == pytest.approx(2.0)
    assert r.slowdown("b") == pytest.approx(1.0)
    assert r.mean_slowdown == pytest.approx(1.5)
    assert r.max_slowdown == pytest.approx(2.0)
    assert r.interference_detected()


def test_slowdown_report_no_interference():
    r = SlowdownReport(alone={"a": 10.0}, together={"a": 10.5})
    assert not r.interference_detected(threshold=1.1)


def test_slowdown_report_validation():
    with pytest.raises(ValueError):
        SlowdownReport(alone={"a": 1.0}, together={"b": 1.0})
    with pytest.raises(ValueError):
        SlowdownReport(alone={"a": 0.0}, together={"a": 1.0})


def test_slowdown_summary_format():
    r = SlowdownReport(alone={"a": 1.0}, together={"a": 2.0})
    text = r.summary()
    assert "slowdown" in text
    assert "2.00x" in text
