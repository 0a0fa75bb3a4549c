"""Low-overhead span tracer; its spans export as Chrome ``trace_event`` JSON.

Spans measure *wall-clock* time inside the simulator's own code (not
virtual simulation time): how long ``Environment.run`` spun the event loop,
how long one experiment task took, how long the runner spent hashing
sources.  Spans nest -- the tracer keeps an open-span stack so each span
records its parent.

Usage::

    from repro import telemetry
    from repro.telemetry.collect import merged_chrome_trace

    telemetry.enable()
    with telemetry.span("run_experiments", cat="runner", jobs=4):
        with telemetry.span("source_digest", cat="runner"):
            ...
    doc = merged_chrome_trace()

:func:`repro.telemetry.collect.merged_chrome_trace` is the one exporter:
it renders this process's finished spans and every worker snapshot as
complete ``"ph": "X"`` events, which load directly in Perfetto /
``chrome://tracing``.  :func:`span_self_times` aggregates its events.

The clock is :func:`time.perf_counter_ns` (monotonic, ns resolution).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional

TRACE_SCHEMA = "repro.telemetry.trace/1"

_perf_ns = time.perf_counter_ns


class Span:
    """One finished (or open) span: a named wall-clock interval."""

    __slots__ = ("name", "cat", "span_id", "parent_id", "start_ns", "end_ns", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.args = args

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"dur={self.duration_ns / 1e6:.3f}ms)"
        )


class _SpanHandle:
    """Context manager that closes its span on exit (even on error)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self._tracer._close(self._span, error=exc_type is not None)


class SpanTracer:
    """Collects nested spans; one instance per process.

    The open-span stack is thread-local so tracing stays correct if spans
    are ever opened from worker threads, but the common case (the
    single-threaded simulator) pays only one ``threading.local`` attribute
    lookup per span.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next_id = 0

    # -- recording ----------------------------------------------------------
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, cat: str = "repro", **args: Any) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("name"): ...``."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        self._next_id += 1
        sp = Span(name, cat, self._next_id, parent_id, _perf_ns(), args or None)
        stack.append(sp)
        return _SpanHandle(self, sp)

    def _close(self, sp: Span, error: bool = False) -> None:
        sp.end_ns = _perf_ns()
        if error:
            sp.args = dict(sp.args or ())
            sp.args["error"] = True
        stack = self._stack()
        # Pop through any spans left open by generator abandonment etc. so
        # one leaked child cannot corrupt all subsequent parentage.
        while stack:
            top = stack.pop()
            if top is sp:
                break
        self.spans.append(sp)

    def clear(self) -> None:
        self.spans.clear()
        self._local = threading.local()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.spans)


def span_self_times(
    events: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Aggregate Chrome trace spans per *name*: call count, total and self
    seconds.

    Self time is a span's duration minus the durations of its direct
    children -- the classic profiler statistic that makes the hot frame
    stand out even under deep nesting.  Parentage comes from the
    ``span_id``/``parent_id`` args the exporter writes; ids are per
    process, so spans are matched within their ``pid`` (a merged
    multi-process trace reuses ids across workers).
    """
    spans = [ev for ev in events if ev.get("ph") == "X"]
    child_us: Dict[Any, float] = {}
    for ev in spans:
        parent = ev.get("args", {}).get("parent_id")
        if parent is not None:
            key = (ev.get("pid"), parent)
            child_us[key] = child_us.get(key, 0.0) + ev["dur"]
    out: Dict[str, Dict[str, float]] = {}
    for ev in spans:
        agg = out.setdefault(ev["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        own = (ev.get("pid"), ev.get("args", {}).get("span_id"))
        agg["count"] += 1
        agg["total_s"] += ev["dur"] / 1e6
        agg["self_s"] += max(0.0, ev["dur"] - child_us.get(own, 0.0)) / 1e6
    return out


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema check for an exported trace; returns a list of problems.

    Kept in the library (not the tests) so the CLI's ``telemetry``
    subcommand can reject malformed files with a useful message.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not a dict with a 'traceEvents' key"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i} missing {key!r}")
        if ev.get("ph") == "X":
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or val < 0:
                    problems.append(f"event {i} has bad {key!r}: {val!r}")
    return problems
