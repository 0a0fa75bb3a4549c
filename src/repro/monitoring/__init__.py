"""Measurement and statistics collection (paper Sec. IV-A-2).

The paper's two collection modes are both implemented:

* **Profiles** ("I/O characterization information, i.e., statistics"):
  :mod:`repro.monitoring.profiler` is the Darshan-like [22] job-level
  profiler; :mod:`repro.monitoring.counters` defines its counter sets.
* **Traces** ("a detailed report of the execution chronology"):
  :mod:`repro.monitoring.tracer` is the Recorder-like [25], [26]
  multi-level tracer; :mod:`repro.monitoring.dxt` adds DXT-style [23]
  per-segment extended tracing on top of the profiler.

Beyond job-level monitoring:

* :mod:`repro.monitoring.server_stats` samples server-side statistics
  (load, queue lengths) like GUIDE [39] / LMT;
* :mod:`repro.monitoring.fsmonitor` captures metadata events like
  FSMonitor [27], [28];
* :mod:`repro.monitoring.endtoend` correlates all of the above and the
  workload-manager (Slurm) job logs of
  :mod:`repro.cluster.scheduler_log` into a UMAMI/TOKIO-like [42], [44]
  end-to-end view;
* :mod:`repro.monitoring.formats` persists traces and profiles.
"""

from repro.monitoring.counters import FileCounters, JobCounters
from repro.monitoring.profiler import DarshanProfiler, JobProfile
from repro.monitoring.dxt import DXTSegment, DXTTracer
from repro.monitoring.tracer import RecorderTracer, TraceArchive
from repro.monitoring.server_stats import ServerSample, ServerStatsCollector
from repro.monitoring.fsmonitor import FSMonitor, MetadataEvent
from repro.monitoring.endtoend import EndToEndMonitor, EndToEndReport
from repro.monitoring.mlprofiler import EpochStats, MLIOProfiler
from repro.monitoring.iominer import ProfileMiner
from repro.monitoring.features import FEATURE_NAMES, access_features, archive_features
from repro.monitoring.formats import (
    load_profile,
    load_trace,
    save_profile,
    save_trace,
)

__all__ = [
    "DXTSegment",
    "DXTTracer",
    "DarshanProfiler",
    "FEATURE_NAMES",
    "access_features",
    "archive_features",
    "EndToEndMonitor",
    "EndToEndReport",
    "EpochStats",
    "FSMonitor",
    "FileCounters",
    "JobCounters",
    "MLIOProfiler",
    "ProfileMiner",
    "JobProfile",
    "MetadataEvent",
    "RecorderTracer",
    "ServerSample",
    "ServerStatsCollector",
    "TraceArchive",
    "load_profile",
    "load_trace",
    "save_profile",
    "save_trace",
]
