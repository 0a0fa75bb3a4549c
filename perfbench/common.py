"""Shared pieces of the benchmark: metric names, statistics, host facts.

Every metric the benchmark can print is declared here once, with its
unit; ``run.py`` emits exactly these names and ``selftest.py`` checks
``BENCHMARK.json`` against them.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and result documents (git-ignored).
OUT = ROOT / ".perfbench"

WORKLOADS = ("paper-suite", "service-warm", "service-mixed", "grammar-synth")
#: The workloads ``BENCHMARK.json`` declares.  service-mixed stays runnable
#: but undeclared: its p50 spread between runs on a 2-vCPU shared host
#: (0.79 over ten runs) is far beyond any bound (see README.md).
DECLARED_WORKLOADS = ("paper-suite", "service-warm", "grammar-synth")

#: End-to-end metrics, printed by every untraced run (name -> unit).
#: ``p50_ms`` is defined per workload on that workload's unit of work; see
#: README.md for the names the human-readable report prints (``suite_s``,
#: ``warm_p99_ms``, ...).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

EXPERIMENT_IDS = (
    "E1", "E2", "E3", "E4",
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
    "A1", "A2", "A3", "A4", "A5",
    "R1", "R2", "R3",
)

IMPORT_PACKAGES = (
    "repro.cli", "repro.experiments", "repro.store", "repro.service", "scipy",
)

#: Per-layer metrics, printed by every traced run (name -> unit).  A layer
#: a workload does not touch reports 0.
PER_LAYER: Dict[str, str] = {
    "des.events": "count",
    "des.run_s": "s",
    "des.us_per_event": "us",
    "cluster.sends": "count",
    "cluster.bytes": "B",
    "cluster.flows": "count",
    "cluster.send_s": "s",
    "pfs.client_ops": "count",
    "pfs.client_bytes": "B",
    "pfs.oss_rpcs": "count",
    "pfs.oss_bytes": "B",
    "pfs.mds_ops": "count",
    "pfs.retries": "count",
    "pfs.self_s": "s",
    "pfs.oss_to_client_bytes": "ratio",
    "iostack.posix_ops": "count",
    "iostack.posix_bytes": "B",
    "iostack.collective_calls": "count",
    "iostack.pfs_to_posix_bytes": "ratio",
    "iostack.self_s": "s",
    "mpi.collectives": "count",
    "mpi.self_s": "s",
    "workloads.ops": "count",
    "workloads.self_s": "s",
    **{f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS},
    "modeling.fit_s": "s",
    "modeling.compress_s": "s",
    "modeling.trace_distance_calls": "count",
    "modeling.trace_distance_s": "s",
    "monitoring.records": "count",
    "monitoring.features_calls": "count",
    "monitoring.self_s": "s",
    "wgen.sample_s": "s",
    "wgen.candidates": "count",
    "wgen.kept_ratio": "ratio",
    "wgen.synth_self_s": "s",
    "scenario.builds": "count",
    "scenario.build_s": "s",
    "scenario.digests": "count",
    "scenario.digest_s": "s",
    "scenario.canonical_json_calls": "count",
    "scenario.parse_s": "s",
    "jobs.lookups": "count",
    "jobs.hit_ratio": "ratio",
    "jobs.lookup_s": "s",
    "store.gets": "count",
    "store.get_s": "s",
    "store.get_bytes": "B",
    "store.puts": "count",
    "store.put_s": "s",
    "store.ref_reads": "count",
    "store.ref_writes": "count",
    "store.verify_problems": "count",
    "service.cpu_s": "s",
    "service.self_s": "s",
    "service.warm_hits": "count",
    "service.coalesced": "count",
    "service.computed": "count",
    "service.rejected": "count",
    "service.jobs_retained": "count",
    "service.p50_drift": "ratio",
    "service.fresh_p50_ms": "ms",
    "journal.records": "count",
    "journal.fsync_batches": "count",
    "journal.append_s": "s",
    "journal.commit_wait_s": "s",
    **{f"setup.import_s.{pkg}": "s" for pkg in IMPORT_PACKAGES},
    "setup.server_boot_s": "s",
    "setup.first_compute_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.backlog_max": "count",
    "loadgen.p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer counts of simulated work: deterministic for a given seed, so
#: the traced run checks them against its untraced pass.
SIMULATED_COUNTS = (
    "des.events", "cluster.sends", "cluster.bytes", "cluster.flows",
    "pfs.client_ops", "pfs.client_bytes", "pfs.oss_rpcs", "pfs.oss_bytes",
    "pfs.mds_ops", "pfs.retries", "iostack.posix_ops", "iostack.posix_bytes",
    "iostack.collective_calls",
)


# -- statistics ----------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest of p99.9/p99/p90 that keeps at least ten samples beyond
    it; with fewer than 11 samples, the maximum."""
    n = len(values)
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return {"pct": pct, "value": quantile(values, pct / 100.0)}
    return {"pct": 100.0, "value": max(values)}


def segment_tails(values: Sequence[float], size: int = 1000) -> List[float]:
    """:func:`tail` of each run of ``size`` consecutive samples (the last
    segment absorbs the remainder); the whole set when shorter than two
    segments."""
    n = len(values)
    if n < 2 * size:
        return [tail(values)["value"]]
    bounds = list(range(0, n - size + 1, size))[: n // size] + [n]
    return [tail(values[a:b])["value"] for a, b in zip(bounds, bounds[1:])]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median, quartiles and tail of one sample set."""
    if not values:
        return {"n": 0}
    t = tail(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "min": min(values),
        "max": max(values),
        "tail_pct": t["pct"],
        "tail": t["value"],
    }


# -- host and process facts ------------------------------------------------------

def host_info() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        **versions,
    }


def _clock_ticks() -> int:
    return os.sysconf("SC_CLK_TCK")


def process_age(pid: int = 0) -> float:
    """Seconds since a process started (``/proc``; 10 ms resolution)."""
    stat = Path(f"/proc/{pid or os.getpid()}/stat").read_text()
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / _clock_ticks()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _clock_ticks()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    out: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(out))


def bench_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def write_json(doc, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str))
    os.replace(tmp, path)


class Deadline:
    """A measurement window of fixed length."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end


def ensure_src_on_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Checks:
    """Correctness checks of one run: how often each ran and what failed."""

    def __init__(self, *names: str):
        self.ran: Dict[str, int] = {name: 0 for name in names}
        self.failures: Dict[str, List[str]] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failures.setdefault(name, []).append(detail)
        return ok

    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            name: {"ran": n, "failed": len(self.failures.get(name, [])),
                   "examples": self.failures.get(name, [])[:5]}
            for name, n in self.ran.items()
        }
