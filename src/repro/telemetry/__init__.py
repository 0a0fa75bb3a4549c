"""Self-observability for the simulator itself.

The repo already instruments the *simulated* I/O stack
(:mod:`repro.monitoring` plays the role of Darshan/Recorder for modelled
workloads); this package instruments the **simulator**: wall-clock span
tracing (:mod:`repro.telemetry.tracing`), a metrics registry
(:mod:`repro.telemetry.metrics`), and run provenance manifests
(:mod:`repro.telemetry.provenance`).

Telemetry is **disabled by default** and designed so disabled overhead is
one attribute load plus a boolean test at each instrumented site::

    from repro.telemetry import TELEMETRY
    ...
    if TELEMETRY.active:
        TELEMETRY.metrics.counter("pfs.oss.rpcs").inc()

Enable it with :func:`enable` (the CLI does this for ``--trace`` /
``--metrics``), open spans with :func:`span`, export them with
:func:`repro.telemetry.collect.write_merged_chrome` (the one Chrome-trace
exporter; it also folds in worker snapshots), read metrics with
``TELEMETRY.metrics.render_text()``, and wipe collected data with
:func:`reset`.  The guard lives at the call site rather than inside the
metric objects so the DES hot loops (see ``benchmarks/check_regression.py``
and ``benchmarks/telemetry_overhead.py``) never pay for a disabled feature.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    METRICS_SCHEMA,
)
from repro.telemetry.provenance import (
    MANIFEST_SCHEMA,
    build_manifest,
    cache_hit_ratio,
    host_metadata,
    load_manifest,
    write_manifest,
)
from repro.telemetry.tracing import (
    Span,
    SpanTracer,
    TRACE_SCHEMA,
    validate_chrome_trace,
)
from repro.telemetry.timeseries import (
    SeriesRegistry,
    TimeSeries,
    TIMESERIES_SCHEMA,
    attach_probe,
    install_standard_probes,
)


class TelemetryState:
    """Process-global telemetry switchboard (one instance: ``TELEMETRY``)."""

    __slots__ = ("active", "tracer", "metrics", "series", "remote")

    def __init__(self):
        self.active = False
        self.tracer = SpanTracer()
        self.metrics = MetricsRegistry()
        #: Simulation-clock time series (:mod:`repro.telemetry.timeseries`).
        self.series = SeriesRegistry()
        #: Span snapshots collected from worker processes
        #: (:func:`repro.telemetry.collect.merge_snapshot` appends here).
        self.remote: list = []


#: The singleton hot paths test.  Import the *object* (not the module) so
#: instrumented code pays one attribute load for the ``active`` check.
TELEMETRY = TelemetryState()


def enabled() -> bool:
    """Is self-telemetry currently collecting?"""
    return TELEMETRY.active


def enable() -> TelemetryState:
    """Turn on span tracing and gated metric collection."""
    TELEMETRY.active = True
    return TELEMETRY


def disable() -> TelemetryState:
    """Stop collecting (already-collected spans/metrics are kept)."""
    TELEMETRY.active = False
    return TELEMETRY


def reset() -> TelemetryState:
    """Drop all collected spans, metrics, series and remote snapshots
    (the enable state is kept)."""
    TELEMETRY.tracer = SpanTracer()
    TELEMETRY.metrics = MetricsRegistry()
    TELEMETRY.series = SeriesRegistry()
    TELEMETRY.remote = []
    return TELEMETRY


def span(name: str, cat: str = "repro", **args):
    """Open a span on the global tracer (regardless of ``active``)."""
    return TELEMETRY.tracer.span(name, cat=cat, **args)


__all__ = [
    "TELEMETRY",
    "TelemetryState",
    "enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA",
    "Span",
    "SpanTracer",
    "TRACE_SCHEMA",
    "validate_chrome_trace",
    "SeriesRegistry",
    "TimeSeries",
    "TIMESERIES_SCHEMA",
    "attach_probe",
    "install_standard_probes",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "cache_hit_ratio",
    "host_metadata",
    "load_manifest",
    "write_manifest",
]
