"""Cross-process telemetry collection.

Worker processes (the runner/sweep/service ``ProcessPoolExecutor``
tasks) each carry their own
:class:`~repro.telemetry.TelemetryState` -- by default their spans,
metrics and time series die with the process.  This module gives every
layer the same three-step contract:

1. parents ship :func:`worker_init_args` to the pool initializer
   (:func:`init_worker`), so workers inherit the parent's telemetry
   on/off state and log level (child processes of a ``spawn`` context
   otherwise fall back to library defaults);
2. workers call :func:`snapshot` at the end of a task and return the
   (pure-JSON, picklable) document alongside their payload;
3. the parent calls :func:`merge_snapshot` on each, folding metrics and
   series into its own registries and parking span payloads for
   :func:`merged_chrome_trace`.

Clock alignment: ``perf_counter_ns`` epochs are per-process and not
comparable, so each snapshot carries a paired ``(wall_anchor_ns,
perf_anchor_ns)`` reading taken at snapshot time.  A span's wall-clock
start is ``wall_anchor - (perf_anchor - start_ns)``; the merged trace
uses the earliest wall start across all processes as its epoch, putting
every pid on one real timeline (within wall-clock skew, which on a
single host is microseconds -- fine for eyeballing in Perfetto).
"""

from __future__ import annotations

import logging
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.tracing import TRACE_SCHEMA

__all__ = [
    "SNAPSHOT_SCHEMA",
    "in_worker",
    "worker_snapshot",
    "snapshot",
    "merge_snapshot",
    "merged_chrome_trace",
    "worker_init_args",
    "init_worker",
]

SNAPSHOT_SCHEMA = "repro.telemetry.snapshot/1"

#: True only in a process started via :func:`init_worker`.  Pool task
#: wrappers are sometimes invoked in-process (``jobs=1`` paths, tests);
#: gating on this keeps such calls from snapshot-clearing the parent's
#: own registries.
_IS_WORKER = False


def in_worker() -> bool:
    """Is this process a telemetry-initialized pool worker?"""
    return _IS_WORKER


def worker_snapshot() -> Optional[Dict[str, Any]]:
    """Per-task snapshot for pool-task wrappers.

    Snapshot-and-clear when running in a worker process (so a pooled
    worker serving many tasks reports each exactly once); ``None`` when
    the wrapper was called in-process.
    """
    if not _IS_WORKER:
        return None
    return snapshot(clear=True)


def snapshot(clear: bool = False) -> Optional[Dict[str, Any]]:
    """Serialize this process's telemetry into one JSON-safe document.

    Returns ``None`` when telemetry is off (the common case -- callers
    ship ``None`` back over the pipe for free).  With ``clear=True`` the
    tracer, metrics and series registries are reset afterwards, so a
    pooled worker that runs many tasks reports each task's telemetry
    exactly once.
    """
    from repro.telemetry import TELEMETRY

    if not TELEMETRY.active:
        return None
    doc = {
        "schema": SNAPSHOT_SCHEMA,
        **_local_spans(),
        "metrics": TELEMETRY.metrics.to_dict(),
        "series": TELEMETRY.series.to_dict(),
    }
    if clear:
        TELEMETRY.tracer.clear()
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.timeseries import SeriesRegistry

        TELEMETRY.metrics = MetricsRegistry()
        TELEMETRY.series = SeriesRegistry()
    return doc


def merge_snapshot(snap: Optional[Dict[str, Any]]) -> None:
    """Fold a worker snapshot into this process's telemetry state.

    Metrics merge commutatively (counters add, gauges take the max,
    histograms add bucket-wise) and series interleave by simulated time,
    so pool completion order never changes the merged result.  Span
    payloads are parked on ``TELEMETRY.remote`` for
    :func:`merged_chrome_trace`.  No-ops on ``None`` or when telemetry
    is off.
    """
    from repro.telemetry import TELEMETRY

    if snap is None or not TELEMETRY.active:
        return
    TELEMETRY.metrics.merge(snap.get("metrics") or {})
    TELEMETRY.series.merge(snap.get("series") or {})
    if snap.get("spans"):
        TELEMETRY.remote.append(snap)


def _local_spans() -> Dict[str, Any]:
    """This process's finished spans with the clock anchors that place
    them on the wall-clock timeline: the span part of a snapshot."""
    from repro.telemetry import TELEMETRY

    return {
        "pid": os.getpid(),
        "wall_anchor_ns": time.time_ns(),
        "perf_anchor_ns": time.perf_counter_ns(),
        "spans": [
            {
                "name": sp.name,
                "cat": sp.cat,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "start_ns": sp.start_ns,
                "end_ns": sp.end_ns,
                "args": sp.args,
            }
            for sp in TELEMETRY.tracer.spans
            if sp.end_ns is not None
        ],
    }


def merged_chrome_trace() -> Dict[str, Any]:
    """The one telemetry document: a Chrome trace spanning every
    collected process.

    Parent spans and every remote snapshot become per-pid ``"X"`` tracks
    on one wall-clock timeline; simulation-time series become ``"C"``
    counter tracks (their timestamps are *simulated* seconds rendered as
    microseconds -- a separate, zero-based axis that Perfetto displays
    alongside; the counter process is labelled to make that explicit).
    ``otherData`` also carries the merged metrics registry
    (``"metrics"``) and series registry (``"series"``) as their
    ``to_dict`` documents, which ``repro-io telemetry`` summarizes.

    Event order is canonicalized (metadata first, then by pid/ts/name),
    so the export is deterministic for a given set of snapshots no
    matter the order workers finished in.
    """
    from repro.telemetry import TELEMETRY

    procs: List[Dict[str, Any]] = [_local_spans()]
    procs.extend(TELEMETRY.remote)

    # Wall-clock start of each process's span set.
    wall_starts: List[int] = []
    for doc in procs:
        anchor = doc["wall_anchor_ns"] - doc["perf_anchor_ns"]
        for sp in doc["spans"]:
            wall_starts.append(anchor + sp["start_ns"])
    epoch = min(wall_starts) if wall_starts else 0

    meta_events: List[Dict[str, Any]] = []
    span_events: List[Dict[str, Any]] = []
    seen_pids = set()
    parent_pid = os.getpid()
    for doc in procs:
        pid = doc["pid"]
        if pid not in seen_pids:
            seen_pids.add(pid)
            role = "parent" if pid == parent_pid else "worker"
            meta_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro-io {role} (pid {pid})"},
                }
            )
        anchor = doc["wall_anchor_ns"] - doc["perf_anchor_ns"]
        for sp in doc["spans"]:
            args: Dict[str, Any] = {"span_id": sp["span_id"]}
            if sp.get("parent_id") is not None:
                args["parent_id"] = sp["parent_id"]
            if sp.get("args"):
                args.update(sp["args"])
            start_wall = anchor + sp["start_ns"]
            span_events.append(
                {
                    "name": sp["name"],
                    "cat": sp.get("cat", "repro"),
                    "ph": "X",
                    "ts": (start_wall - epoch) / 1e3,
                    "dur": (sp["end_ns"] - sp["start_ns"]) / 1e3,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
            )
    meta_events.sort(key=lambda ev: ev["pid"])
    span_events.sort(key=lambda ev: (ev["pid"], ev["ts"], ev["name"]))

    # Simulation-clock counter tracks (one synthetic pid, labelled).
    counter_events: List[Dict[str, Any]] = []
    series_names = TELEMETRY.series.names()
    if series_names:
        sim_pid = 0
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": sim_pid,
                "tid": 0,
                "args": {"name": "simulated time (series; ts = sim us)"},
            }
        )
        for name in series_names:
            ts_obj = TELEMETRY.series.series(name)
            for t, v in zip(ts_obj.times, ts_obj.values):
                counter_events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t * 1e6,
                        "pid": sim_pid,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
        counter_events.sort(key=lambda ev: (ev["name"], ev["ts"]))

    return {
        "traceEvents": meta_events + span_events + counter_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "merged": True,
            "processes": sorted(seen_pids),
            "metrics": TELEMETRY.metrics.to_dict(),
            "series": TELEMETRY.series.to_dict(),
        },
    }


# -- worker bootstrap -------------------------------------------------------

def worker_init_args() -> Tuple[bool, int]:
    """The ``(telemetry_active, log_level)`` pair to ship to pool workers."""
    from repro.telemetry import TELEMETRY

    return TELEMETRY.active, logging.getLogger().getEffectiveLevel()


def init_worker(telemetry_active: bool, log_level: int) -> None:
    """Process-pool initializer: mirror the parent's telemetry state and
    log level in the worker.

    Must stay a plain module-level function (picklable by reference for
    ``spawn`` contexts).
    """
    global _IS_WORKER
    _IS_WORKER = True
    logging.basicConfig(
        level=log_level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    logging.getLogger().setLevel(log_level)
    if telemetry_active:
        from repro import telemetry

        telemetry.reset()
        telemetry.enable()
