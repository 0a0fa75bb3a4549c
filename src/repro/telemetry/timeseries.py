"""Simulation-clock time series and DES-timeline probes.

Real parallel I/O monitors (Darshan, LLview, server-side Lustre stats;
paper Sec. IV-A) sample live system state at a fixed cadence and keep
the samples as time series.  The simulated stack deserves the same
visibility: this module records ``(sim_time, value)`` samples into named
series and provides a probe coroutine that rides the DES event timeline,
sampling link, server and queue state at a fixed simulated interval.

Everything here follows the repo's self-telemetry contract: the single
``TELEMETRY.active`` check gates all recording, probes are only
installed when telemetry is enabled, and nothing in this module is ever
imported on a simulation hot path when telemetry is off.

Series are bounded: once a series reaches its point cap it is decimated
(every other point dropped) and the sampling stride doubled, so a
pathologically long run costs O(cap) memory while still covering the
whole timeline.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "TIMESERIES_SCHEMA",
    "TimeSeries",
    "SeriesRegistry",
    "attach_probe",
    "install_standard_probes",
    "value_stats",
]

TIMESERIES_SCHEMA = "repro.telemetry.timeseries/1"

#: Default per-series point cap before decimation kicks in.
DEFAULT_MAX_POINTS = 4096


def value_stats(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics: count/min/mean/max/p99/last.

    p99 is nearest-rank over the samples.
    """
    n = len(values)
    if n == 0:
        return {"count": 0}
    ordered = sorted(values)
    rank = max(0, min(n - 1, -(-99 * n // 100) - 1))  # ceil(0.99 n) - 1
    return {
        "count": n,
        "min": ordered[0],
        "mean": sum(values) / n,
        "max": ordered[-1],
        "p99": ordered[rank],
        "last": values[-1],
    }


class TimeSeries:
    """One named sequence of ``(sim_time, value)`` samples.

    Decimation keeps the series bounded: when ``max_points`` is reached,
    every other sample is dropped and the keep-stride doubles, so the
    series always spans the full timeline at progressively coarser
    resolution (the classic rrdtool-style consolidation, without the
    averaging -- exact samples are kept so p99 stays meaningful).
    """

    __slots__ = ("name", "unit", "times", "values", "max_points", "_stride", "_skip")

    def __init__(self, name: str, unit: str = "", max_points: int = DEFAULT_MAX_POINTS):
        if max_points < 4:
            raise ValueError("max_points must be at least 4")
        self.name = name
        self.unit = unit
        self.times: List[float] = []
        self.values: List[float] = []
        self.max_points = max_points
        self._stride = 1  # record every _stride-th offered sample
        self._skip = 0  # offered samples dropped since the last kept one

    def record(self, t: float, value: float) -> None:
        """Record one sample at simulated time ``t``."""
        if self._skip + 1 < self._stride:
            self._skip += 1
            return
        self._skip = 0
        self.times.append(float(t))
        self.values.append(float(value))
        if len(self.times) >= self.max_points:
            self._decimate()

    def _decimate(self) -> None:
        self.times = self.times[::2]
        self.values = self.values[::2]
        self._stride *= 2

    def __len__(self) -> int:
        return len(self.times)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "unit": self.unit,
            "times": list(self.times),
            "values": list(self.values),
        }


class SeriesRegistry:
    """Process-wide collection of named time series."""

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS):
        self._series: Dict[str, TimeSeries] = {}
        self.max_points = max_points

    def series(self, name: str, unit: str = "") -> TimeSeries:
        """Get or create the series called ``name``."""
        ts = self._series.get(name)
        if ts is None:
            ts = TimeSeries(name, unit, self.max_points)
            self._series[name] = ts
        return ts

    def record(self, name: str, t: float, value: float, unit: str = "") -> None:
        self.series(name, unit).record(t, value)

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self):
        return iter(self._series.values())

    def names(self) -> List[str]:
        return sorted(self._series)

    def to_dict(self) -> dict:
        """JSON document with all series, sorted by name."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "series": [self._series[k].to_dict() for k in sorted(self._series)],
        }

    def merge(self, doc: dict) -> None:
        """Fold a ``to_dict()`` document from another process into this
        registry.

        Samples are interleaved by simulated time and re-sorted, so the
        merged result is independent of merge order (process-pool
        completion order is nondeterministic).  Merged series are
        re-decimated against the cap.
        """
        for entry in doc.get("series", ()):
            ts = self.series(entry["name"], entry.get("unit", ""))
            if not entry.get("times"):
                continue
            pairs = sorted(
                zip(
                    list(ts.times) + [float(t) for t in entry["times"]],
                    list(ts.values) + [float(v) for v in entry["values"]],
                )
            )
            ts.times = [p[0] for p in pairs]
            ts.values = [p[1] for p in pairs]
            while len(ts.times) >= ts.max_points:
                ts._decimate()


# -- DES-timeline probes ---------------------------------------------------

Sampler = Tuple[str, str, Callable[[], float]]


def _probe_proc(env, samplers: Sequence[Sampler], interval: float, series):
    """Generator process: sample, then re-arm unless the timeline is idle.

    The probe's own timeout is the event being executed when this
    generator resumes, so an empty queue means every *real* event has
    drained -- stopping here guarantees ``env.run()`` (run-to-empty)
    terminates instead of the probe keeping the heap alive forever.
    """
    while True:
        now = env.now
        for name, unit, fn in samplers:
            series.record(name, now, fn(), unit)
        if not env._queue:
            return
        yield env.timeout(interval)


def attach_probe(env, samplers: Iterable[Sampler], interval: float):
    """Install a periodic sampling process on ``env``.

    Parameters
    ----------
    env:
        The :class:`repro.des.engine.Environment` to ride.
    samplers:
        ``(series_name, unit, callable)`` triples; each callable returns
        the instantaneous value to record.
    interval:
        Simulated seconds between samples.

    Returns the probe process (or ``None`` when telemetry is off).
    """
    from repro.telemetry import TELEMETRY

    if not TELEMETRY.active:
        return None
    if interval <= 0:
        raise ValueError("probe interval must be positive")
    sams = list(samplers)
    if not sams:
        return None
    return env.process(_probe_proc(env, sams, interval, TELEMETRY.series))


#: Default simulated sampling interval (10 ms of simulated time).
DEFAULT_PROBE_INTERVAL = 0.01


def standard_samplers(harness) -> List[Sampler]:
    """Samplers mirroring the client/server/system probe levels of the
    paper's Sec. IV-A taxonomy, for one :class:`ExperimentHarness`.

    Covers fair-share core links (system level), OSS service backlog and
    per-OST device queues plus MDS backlog (server level).  Per-endpoint
    NIC links are deliberately skipped -- hundreds of mostly-idle series
    for large platforms.
    """
    samplers: List[Sampler] = []
    platform = harness.platform
    for label, fabric in (
        ("compute", getattr(platform, "compute_fabric", None)),
        ("storage", getattr(platform, "storage_fabric", None)),
    ):
        if fabric is None:
            continue
        core = fabric.core
        samplers.append(
            (f"net.{label}.core.flows", "flows", lambda c=core: float(c.active_flows))
        )
        samplers.append(
            (f"net.{label}.core.util", "frac", lambda c=core: float(c.utilization))
        )
    pfs = harness.pfs
    if pfs is not None:
        for oss, _node in pfs.oss_servers:
            samplers.append(
                (
                    f"pfs.oss.{oss.name}.backlog",
                    "rpcs",
                    lambda o=oss: float(o.queue_length + o.in_service),
                )
            )
            for ost_id in oss.ost_ids:
                dev = oss.osts[ost_id]
                samplers.append(
                    (
                        f"pfs.ost.{ost_id}.queue",
                        "reqs",
                        lambda d=dev: float(d.queue_length),
                    )
                )
        for mds, _node in pfs.mds_servers:
            samplers.append(
                (
                    f"pfs.mds.{mds.name}.backlog",
                    "rpcs",
                    lambda m=mds: float(m.queue_length + m.in_service),
                )
            )
    return samplers


def install_standard_probes(harness, interval: float = DEFAULT_PROBE_INTERVAL):
    """Attach the standard probe set to a harness's environment.

    No-op (returns ``None``) when telemetry is disabled.
    """
    from repro.telemetry import TELEMETRY

    if not TELEMETRY.active:
        return None
    return attach_probe(harness.platform.env, standard_samplers(harness), interval)
