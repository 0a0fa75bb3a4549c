"""Unit tests for the self-telemetry span tracer and Chrome export."""

import pytest

from repro import telemetry
from repro.telemetry.collect import merged_chrome_trace
from repro.telemetry.tracing import (
    SpanTracer,
    TRACE_SCHEMA,
    span_self_times,
    validate_chrome_trace,
)


class TestSpanRecording:
    def test_span_records_duration_and_name(self):
        tracer = SpanTracer()
        with tracer.span("outer", cat="test"):
            pass
        assert len(tracer) == 1
        sp = tracer.spans[0]
        assert sp.name == "outer"
        assert sp.cat == "test"
        assert sp.end_ns is not None and sp.duration_ns >= 0
        assert sp.parent_id is None

    def test_nesting_records_parent_ids(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        by_name = {sp.name: sp for sp in tracer.spans}
        assert by_name["a"].parent_id is None
        assert by_name["b"].parent_id == by_name["a"].span_id
        assert by_name["c"].parent_id == by_name["b"].span_id
        # Sibling opened after "b" closed still parents to "a".
        assert by_name["d"].parent_id == by_name["a"].span_id
        # Children close before parents.
        assert tracer.spans[-1].name == "a"

    def test_span_args_captured(self):
        tracer = SpanTracer()
        with tracer.span("run", jobs=4, experiment="E1"):
            pass
        assert tracer.spans[0].args == {"jobs": 4, "experiment": "E1"}

    def test_exception_closes_span_and_flags_error(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        sp = tracer.spans[0]
        assert sp.end_ns is not None
        assert sp.args["error"] is True

    def test_empty_tracer_is_falsy_but_not_none(self):
        # Regression guard: runner code must test `tracer is not None`, not
        # truthiness -- an empty tracer is falsy because __len__ == 0.
        tracer = SpanTracer()
        assert len(tracer) == 0
        assert not tracer

    def test_clear_resets_everything(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        with tracer.span("b"):
            pass
        assert tracer.spans[0].span_id == 1  # ids restart


class TestSelfTimes:
    def test_self_time_subtracts_direct_children(self):
        telemetry.enable()
        with telemetry.span("parent"):
            with telemetry.span("child"):
                pass
        agg = span_self_times(merged_chrome_trace()["traceEvents"])
        assert agg["parent"]["count"] == 1
        assert agg["child"]["count"] == 1
        # parent self <= parent total, and child total fits inside parent.
        assert agg["parent"]["self_s"] <= agg["parent"]["total_s"]
        assert agg["child"]["total_s"] <= agg["parent"]["total_s"]

    def test_span_ids_matched_within_their_pid(self):
        # A merged trace reuses span ids across processes: pid 2's child
        # (parent_id 1) must not be charged to pid 1's span 1.
        def x(pid, span_id, dur, parent=None):
            args = {"span_id": span_id}
            if parent is not None:
                args["parent_id"] = parent
            return {"name": f"p{pid}.{span_id}", "ph": "X", "ts": 0.0,
                    "dur": dur, "pid": pid, "tid": 0, "args": args}

        agg = span_self_times([x(1, 1, 10.0), x(2, 1, 8.0), x(2, 2, 3.0, 1)])
        assert agg["p1.1"]["self_s"] == pytest.approx(10e-6)
        assert agg["p2.1"]["self_s"] == pytest.approx(5e-6)
        assert agg["p2.2"]["total_s"] == pytest.approx(3e-6)


class TestChromeExport:
    """The merged exporter renders this process's own spans too."""

    def test_export_is_valid_chrome_trace(self):
        telemetry.enable()
        with telemetry.span("outer", cat="test", jobs=2):
            with telemetry.span("inner"):
                pass
        doc = merged_chrome_trace()
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["schema"] == TRACE_SCHEMA
        events = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert len(events) == 2
        inner = next(ev for ev in events if ev["name"] == "inner")
        outer = next(ev for ev in events if ev["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # ts is relative to the first span; dur in microseconds.
        assert outer["ts"] == 0.0
        assert inner["ts"] >= 0.0
        assert outer["args"]["jobs"] == 2

    def test_metadata_event_present(self):
        doc = merged_chrome_trace()
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"

    def test_open_spans_not_exported(self):
        handle = telemetry.span("open")  # never entered/closed
        assert handle is not None
        doc = merged_chrome_trace()
        assert all(ev["name"] != "open" for ev in doc["traceEvents"])


class TestValidator:
    def test_rejects_non_trace_documents(self):
        assert validate_chrome_trace({"foo": 1})
        assert validate_chrome_trace({"traceEvents": "nope"})

    def test_flags_missing_fields_and_bad_durations(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": -5, "name": "x"},
                {"name": "y"},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("dur" in p for p in problems)
        assert any("missing" in p for p in problems)
        assert any("not an object" in p for p in problems)
