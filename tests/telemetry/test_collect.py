"""Cross-process snapshot/merge and merged Chrome-trace export edges."""

import os

from repro import telemetry
from repro.telemetry import TELEMETRY
from repro.telemetry import collect
from repro.telemetry.collect import (
    SNAPSHOT_SCHEMA,
    init_worker,
    merge_snapshot,
    merged_chrome_trace,
    snapshot,
    worker_init_args,
    worker_snapshot,
)
from repro.telemetry.tracing import validate_chrome_trace


def fake_snapshot(pid, spans=(), metrics=None, series=None, anchor_ns=10**9):
    """A snapshot document as a worker with the given pid would ship it."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "pid": pid,
        "wall_anchor_ns": anchor_ns,
        "perf_anchor_ns": 0,
        "spans": list(spans),
        "metrics": metrics or {},
        "series": series or {},
    }


def span(name, start_ns, end_ns, span_id=1, **args):
    return {
        "name": name,
        "cat": "test",
        "span_id": span_id,
        "parent_id": None,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "args": args,
    }


class TestSnapshot:
    def test_none_when_disabled(self):
        assert snapshot() is None
        assert worker_snapshot() is None

    def test_contains_spans_metrics_series(self):
        telemetry.enable()
        with TELEMETRY.tracer.span("work", cat="test"):
            pass
        TELEMETRY.metrics.counter("c").inc(3)
        TELEMETRY.series.record("s", 0.5, 2.0, "reqs")
        doc = snapshot()
        assert doc["schema"] == SNAPSHOT_SCHEMA
        assert doc["pid"] == os.getpid()
        assert [sp["name"] for sp in doc["spans"]] == ["work"]
        assert doc["metrics"]["metrics"]["c"]["value"] == 3
        assert doc["series"]["series"][0]["name"] == "s"

    def test_open_spans_excluded(self):
        telemetry.enable()
        TELEMETRY.tracer.span("open")  # never entered
        assert snapshot()["spans"] == []

    def test_clear_resets_registries(self):
        telemetry.enable()
        TELEMETRY.metrics.counter("c").inc()
        snapshot(clear=True)
        assert snapshot()["metrics"]["metrics"] == {}

    def test_worker_snapshot_requires_worker_flag(self, monkeypatch):
        # In-process pool paths (jobs=1, tests) must never snapshot-clear
        # the parent's registries.
        telemetry.enable()
        TELEMETRY.metrics.counter("c").inc()
        assert worker_snapshot() is None
        assert TELEMETRY.metrics.to_dict()["metrics"]["c"]["value"] == 1
        monkeypatch.setattr(collect, "_IS_WORKER", True)
        doc = worker_snapshot()
        assert doc is not None and doc["metrics"]["metrics"]["c"]["value"] == 1
        assert TELEMETRY.metrics.to_dict()["metrics"] == {}


class TestMergeSnapshot:
    def test_noop_on_none_or_disabled(self):
        merge_snapshot(None)
        telemetry.disable()
        merge_snapshot(fake_snapshot(pid=99, spans=[span("x", 0, 10)]))
        assert TELEMETRY.remote == []

    def test_metrics_merge_commutes(self):
        docs = []
        for inc in (2, 5):
            telemetry.reset()
            telemetry.enable()
            TELEMETRY.metrics.counter("n").inc(inc)
            TELEMETRY.metrics.gauge("hw").update_max(inc)
            docs.append(snapshot())
        results = []
        for order in (docs, docs[::-1]):
            telemetry.reset()
            telemetry.enable()
            for d in order:
                merge_snapshot(d)
            results.append(TELEMETRY.metrics.to_dict())
        assert results[0] == results[1]
        assert results[0]["metrics"]["n"]["value"] == 7
        assert results[0]["metrics"]["hw"]["value"] == 5

    def test_spans_parked_for_trace(self):
        telemetry.enable()
        snap = fake_snapshot(pid=1234, spans=[span("w", 0, 10)])
        merge_snapshot(snap)
        assert TELEMETRY.remote == [snap]


class TestMergedChromeTrace:
    def test_empty_trace_is_valid(self):
        telemetry.enable()
        doc = merged_chrome_trace()
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["merged"] is True
        # Only the parent's metadata track, no spans, no counters.
        assert [ev["ph"] for ev in doc["traceEvents"]] == ["M"]
        assert doc["otherData"]["processes"] == [os.getpid()]

    def test_overlapping_spans_from_multiple_pids(self):
        telemetry.enable()
        # Two workers with overlapping wall-clock windows; identical
        # anchors make the arithmetic exact.
        merge_snapshot(fake_snapshot(101, [span("a", 1000, 5000)]))
        merge_snapshot(fake_snapshot(102, [span("b", 2000, 4000)]))
        doc = merged_chrome_trace()
        assert validate_chrome_trace(doc) == []
        evs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert evs["a"]["pid"] == 101 and evs["b"]["pid"] == 102
        # Epoch is the earliest start; ts in us relative to it.
        assert evs["a"]["ts"] == 0.0
        assert evs["b"]["ts"] == 1.0 and evs["b"]["dur"] == 2.0
        assert set(doc["otherData"]["processes"]) == {os.getpid(), 101, 102}
        # One process_name metadata track per pid.
        meta_pids = [e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"]
        assert sorted(meta_pids) == sorted({os.getpid(), 101, 102})

    def test_worker_and_parent_roles_labelled(self):
        telemetry.enable()
        merge_snapshot(fake_snapshot(4242, [span("w", 0, 1)]))
        names = {
            e["pid"]: e["args"]["name"]
            for e in merged_chrome_trace()["traceEvents"]
            if e["ph"] == "M"
        }
        assert "parent" in names[os.getpid()]
        assert "worker" in names[4242]

    def test_counter_track_ordering(self):
        telemetry.enable()
        TELEMETRY.series.record("b.series", 0.2, 1.0)
        TELEMETRY.series.record("a.series", 0.1, 2.0)
        TELEMETRY.series.record("a.series", 0.3, 3.0)
        doc = merged_chrome_trace()
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert [(e["name"], e["ts"]) for e in counters] == [
            ("a.series", 0.1e6),
            ("a.series", 0.3e6),
            ("b.series", 0.2e6),
        ]
        # Counters ride a synthetic pid-0 track labelled as simulated time.
        assert all(e["pid"] == 0 for e in counters)
        sim_meta = next(
            e for e in doc["traceEvents"] if e["ph"] == "M" and e["pid"] == 0
        )
        assert "simulated" in sim_meta["args"]["name"]

    def test_determinism_across_merge_order(self):
        # The merged export must not depend on pool completion order.
        def series(t, v):
            return {"series": [{"name": "q", "unit": "reqs",
                                "times": [t], "values": [v]}]}

        def metrics(n):
            return {"metrics": {"n": {"kind": "counter", "value": n}}}

        snaps = [
            fake_snapshot(101, [span("a", 1000, 2000)], metrics(1),
                          series(0.2, 1.0)),
            fake_snapshot(102, [span("b", 500, 1500)], metrics(2),
                          series(0.1, 2.0)),
            fake_snapshot(103, [span("c", 0, 3000)], metrics(4),
                          series(0.3, 3.0)),
        ]
        traces = []
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            telemetry.reset()
            telemetry.enable()
            for k in order:
                merge_snapshot(snaps[k])
            traces.append(merged_chrome_trace())
        # Whole documents, metrics and series in otherData included.
        assert traces[0] == traces[1] == traces[2]
        other = traces[0]["otherData"]
        assert other["metrics"]["metrics"]["n"]["value"] == 7
        assert other["series"]["series"][0]["times"] == [0.1, 0.2, 0.3]

    def test_write_merged_round_trips(self, tmp_path):
        # ``--trace`` writes the document it built, creating parent
        # directories, and the file reads back equal.
        import argparse
        import json

        from repro.cli.common import emit_telemetry

        telemetry.enable()
        merge_snapshot(fake_snapshot(7, [span("w", 0, 100)]))
        out = tmp_path / "sub" / "merged.json"
        doc = emit_telemetry(argparse.Namespace(trace=str(out)))
        with open(out, "r", encoding="utf-8") as fh:
            assert json.load(fh) == doc
        assert validate_chrome_trace(doc) == []
        assert 7 in doc["otherData"]["processes"]


class TestWorkerBootstrap:
    def test_init_worker_mirrors_parent_state(self, monkeypatch):
        monkeypatch.setattr(collect, "_IS_WORKER", False)
        telemetry.enable()
        active, level = worker_init_args()
        assert active is True and isinstance(level, int)
        init_worker(active, level)
        assert collect.in_worker()
        assert TELEMETRY.active

    def test_init_worker_keeps_telemetry_off(self, monkeypatch):
        monkeypatch.setattr(collect, "_IS_WORKER", False)
        active, level = worker_init_args()
        assert active is False
        init_worker(active, level)
        assert collect.in_worker()
        assert not TELEMETRY.active
