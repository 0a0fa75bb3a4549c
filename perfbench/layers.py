"""Layer tracing from outside the program.

:func:`install` wraps the public entry points of the ``repro`` layers
(``des``, ``cluster``, ``pfs``, ``iostack``, ``mpi``, ``workloads``,
``monitoring``, ``modeling``, ``wgen``, ``scenario``, ``experiments``,
``jobs``, ``store``, ``service`` and ``service.journal``) with counters
and, when timing is on, with frames on one layer stack.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every attribute.

Timing rules:

* A frame's *self time* is its duration minus the time of the frames
  nested in it; self time is summed per layer.
* Simulated processes are generators.  For the generator entry points
  (``NetworkFabric.send``, ``PFSClient.write``/``read``,
  ``ObjectStorageServer.serve_data``, ``MetadataServer.serve``, the POSIX
  and MPI-IO calls, collectives, workload programs) each *resumption* is
  one frame, so host time lands in the layer whose code ran, not in the
  event loop that resumed it.
* Call frames (experiments, scenario builds, store calls, synthesis, ...)
  also become spans (name, start, end, parent, request id), kept in
  memory up to :data:`SPAN_CAP` per name and written as a Chrome
  ``trace_event`` file at the end.  Generator resumptions are aggregated
  only: one span per resumption would not fit in memory.

With ``timing=False`` the same boundaries only count.  The traced run
compares those counts with the timed pass's to show that tracing does
not change what is simulated.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from common import EXPERIMENT_IDS, PER_LAYER

_perf = time.perf_counter
#: Spans kept per span name; later ones are only counted as dropped.
SPAN_CAP = 2000


class Tracer:
    """Layer stack, counters and span buffer of one process."""

    def __init__(self, timing: bool = True):
        self.timing = timing
        self.pid = os.getpid()
        self.origin_wall = time.time()
        self.origin_perf = _perf()
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self._span_n: Dict[str, int] = defaultdict(int)
        self.spans_dropped = 0
        self.request_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self._undo: List[Callable[[], None]] = []
        #: PFS client stats objects, read at the end for retry counts.
        self.client_stats: List[Any] = []

    # -- frames ----------------------------------------------------------------

    def enter(self, name: str, layer: str) -> list:
        frame = [name, layer, _perf(), 0.0]
        self.stack.append(frame)
        self._depth[name] += 1
        return frame

    def exit(self, frame: list, span: bool) -> None:
        end = _perf()
        stack = self.stack
        while stack and stack[-1] is not frame:  # unbalanced: drop orphans
            stack.pop()
        if stack:
            stack.pop()
        name, layer, start, child = frame
        dur = end - start
        self.self_s[layer] += dur - child
        if stack:
            stack[-1][3] += dur
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.incl_s[name] += dur
        if span:
            self.add_span(name, layer, start, end,
                          stack[-1][0] if stack else None)

    def add_span(self, name, layer, start, end, parent) -> None:
        n = self._span_n[name]
        self._span_n[name] = n + 1
        if n >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.spans.append(
            (name, layer, start, end, parent, self.request_id.get())
        )

    # -- patching ----------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, layer: str,
              count: Optional[Callable] = None, frame: bool = True,
              span: bool = True, after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (a function, method or generator method)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = None
        func = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            func = raw.__func__
        if getattr(func, "__perfbench__", False):
            return
        wrapped = self._wrap(func, name, layer, count, frame and self.timing,
                             span, after)
        new = kind(wrapped) if kind is not None else wrapped
        self._set(owner, attr, new)
        if not isinstance(owner, type):
            self._rebind(func, wrapped)

    def _rebind(self, original: Callable, wrapped: Callable) -> None:
        """Replace ``from x import f`` copies of a patched function."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        """``setattr`` that :meth:`uninstall` undoes."""
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def _wrap(self, func, name, layer, count, timed, span, after=None):
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                if count is not None:
                    count(tracer, args, kwargs)
                gen = func(*args, **kwargs)
                return tracer._drive(gen, name, layer) if timed else gen
            gen_wrapper.__perfbench__ = True
            return gen_wrapper

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def coro_wrapper(*args, **kwargs):
                if count is not None:
                    count(tracer, args, kwargs)
                start = _perf()
                try:
                    return await func(*args, **kwargs)
                finally:
                    end = _perf()
                    tracer.incl_s[name] += end - start
                    if timed and span:
                        tracer.add_span(name, layer, start, end, None)
            coro_wrapper.__perfbench__ = True
            return coro_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer, args, kwargs)
            if not timed:
                result = func(*args, **kwargs)
            else:
                frame = tracer.enter(name, layer)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.exit(frame, span)
            if after is not None:
                after(tracer, result)
            return result
        wrapper.__perfbench__ = True
        return wrapper

    def _drive(self, gen, name, layer):
        """Re-yield ``gen``'s events, timing each resumption as one frame."""
        value = None
        error = None
        while True:
            frame = self.enter(name, layer)
            try:
                if error is None:
                    event = gen.send(value)
                else:
                    event = gen.throw(error)
            except StopIteration as stop:
                self.exit(frame, False)
                return stop.value
            except BaseException:
                self.exit(frame, False)
                raise
            self.exit(frame, False)
            error = None
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the simulation
                error = exc
                value = None

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything another process needs to merge this tracer's data."""
        self.counts["pfs.retries"] = sum(s.retries for s in self.client_stats)
        return {
            "pid": self.pid,
            "origin_wall": self.origin_wall,
            "origin_perf": self.origin_perf,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


# -- counters at the boundaries ------------------------------------------------------

def _arg(args, kwargs, index, key, default=0):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _counter(key: str, index: Optional[int] = None, arg: str = "",
             byte_key: str = "") -> Callable:
    def count(tracer, args, kwargs):
        tracer.counts[key] += 1
        if index is not None:
            tracer.counts[byte_key] += _arg(args, kwargs, index, arg) or 0
    return count


def _count_send(tracer, args, kwargs):
    # (self, src, dst, nbytes): intra-node transfers move no bytes.
    tracer.counts["cluster.sends"] += 1
    if _arg(args, kwargs, 1, "src") != _arg(args, kwargs, 2, "dst"):
        tracer.counts["cluster.bytes"] += _arg(args, kwargs, 3, "nbytes")


def _count_batch(tracer, args, kwargs):
    tracer.counts["cluster.flows"] += len(_arg(args, kwargs, 1, "sizes", ()))


def _classes_defining(package: str, attr: str):
    """Classes in loaded ``package.*`` modules that define ``attr``."""
    seen = set()
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == mod_name
                    and attr in obj.__dict__ and obj not in seen):
                seen.add(obj)
                yield obj


def install(tracer: Tracer, experiments: bool = True) -> Tracer:
    """Wrap every layer boundary; returns ``tracer``."""
    import repro.experiments as experiments_pkg
    import repro.iostack.hdf5  # noqa: F401  (load every workload/iostack class)
    import repro.modeling  # noqa: F401  (classes found by module scan)
    import repro.monitoring  # noqa: F401
    import repro.service.server as server
    import repro.workloads  # noqa: F401
    from repro.cluster.network import NetworkFabric
    from repro.des.engine import Environment
    from repro.des.sharing import FairShareLink
    from repro.iostack.mpiio import MPIIOLayer
    from repro.iostack.posix import PosixLayer
    trace_compress = importlib.import_module("repro.modeling.trace_compress")
    trace_distance = importlib.import_module("repro.modeling.trace_distance")
    features = importlib.import_module("repro.monitoring.features")
    grammar = importlib.import_module("repro.wgen.grammar")
    synth = importlib.import_module("repro.wgen.synth")
    scenario_build = importlib.import_module("repro.scenario.build")
    jobs_cache = importlib.import_module("repro.jobs.cache")
    from repro.mpi.runtime import Communicator, RankContext
    from repro.pfs.client import PFSClient
    from repro.pfs.mds import MetadataServer
    from repro.pfs.oss import ObjectStorageServer
    from repro.scenario.spec import ScenarioSpec
    from repro.service.journal import JobJournal
    from repro.store.store import RunStore
    from repro.workloads.base import OpStreamExecutor

    p = tracer.patch

    # des: one frame per run; the event count is read off the environment.
    orig_run = Environment.run

    @functools.wraps(orig_run)
    def run(self, until=None):
        before = self.events_processed
        try:
            return orig_run(self, until)
        finally:
            tracer.counts["des.events"] += self.events_processed - before
    tracer._set(Environment, "run", run)
    p(Environment, "run", "des.Environment.run", "des", span=True)

    # cluster
    p(NetworkFabric, "send", "cluster.send", "cluster", count=_count_send)
    p(FairShareLink, "transfer", "cluster.flow", "cluster",
      count=_counter("cluster.flows"), frame=False)
    p(FairShareLink, "transfer_batch", "cluster.flow_batch", "cluster",
      count=_count_batch, frame=False)

    # pfs
    p(PFSClient, "write", "pfs.client.write", "pfs",
      count=_counter("pfs.client_ops", 3, "nbytes", "pfs.client_bytes"))
    p(PFSClient, "read", "pfs.client.read", "pfs",
      count=_counter("pfs.client_ops", 3, "nbytes", "pfs.client_bytes"))
    p(ObjectStorageServer, "serve_data", "pfs.oss.serve_data", "pfs",
      count=_counter("pfs.oss_rpcs", 3, "nbytes", "pfs.oss_bytes"))
    p(MetadataServer, "serve", "pfs.mds.serve", "pfs",
      count=_counter("pfs.mds_ops"))
    orig_client_init = PFSClient.__init__

    @functools.wraps(orig_client_init)
    def client_init(self, *args, **kwargs):
        orig_client_init(self, *args, **kwargs)
        tracer.client_stats.append(self.stats)
    tracer._set(PFSClient, "__init__", client_init)

    # iostack
    for attr in ("write", "read", "pwrite", "pread"):
        index = 2 if attr in ("write", "read") else 3
        p(PosixLayer, attr, f"iostack.posix.{attr}", "iostack",
          count=_counter("iostack.posix_ops", index, "nbytes",
                         "iostack.posix_bytes"))
    for attr in ("open", "close", "lseek", "fsync", "stat", "unlink",
                 "mkdir", "rmdir", "readdir", "creat"):
        p(PosixLayer, attr, f"iostack.posix.{attr}", "iostack",
          count=_counter("iostack.posix_ops"))
    for attr in ("open_all", "close_all", "write_at_all", "read_at_all"):
        p(MPIIOLayer, attr, f"iostack.mpiio.{attr}", "iostack",
          count=_counter("iostack.collective_calls"))
    for attr in ("write_at", "read_at", "write_noncontig", "read_noncontig"):
        p(MPIIOLayer, attr, f"iostack.mpiio.{attr}", "iostack")

    # mpi
    for attr in ("barrier", "bcast", "allreduce", "gather", "allgather",
                 "alltoall"):
        p(Communicator, attr, f"mpi.{attr}", "mpi",
          count=_counter("mpi.collectives"))
    for attr in ("send", "recv"):
        p(Communicator, attr, f"mpi.{attr}", "mpi")
    for attr in ("compute", "barrier"):
        p(RankContext, attr, f"mpi.rank.{attr}", "mpi")

    # workloads
    p(OpStreamExecutor, "execute", "workloads.execute", "workloads",
      count=_counter("workloads.ops"))
    for cls in _classes_defining("repro.workloads", "program"):
        p(cls, "program", f"workloads.{cls.__name__}.program", "workloads")

    # monitoring
    for cls in _classes_defining("repro.monitoring", "__call__"):
        p(cls, "__call__", f"monitoring.{cls.__name__}", "monitoring",
          count=_counter("monitoring.records"), span=False)
    for cls in _classes_defining("repro.monitoring", "observe"):
        p(cls, "observe", f"monitoring.{cls.__name__}.observe", "monitoring",
          count=_counter("monitoring.records"), span=False)
    p(features, "access_features", "monitoring.access_features",
      "monitoring", count=_counter("monitoring.features_calls"))

    # modeling
    for cls in _classes_defining("repro.modeling", "fit"):
        p(cls, "fit", "modeling.fit", "modeling")
    p(trace_compress, "compress_ops", "modeling.compress_ops", "modeling")
    p(trace_distance, "trace_distance", "modeling.trace_distance",
      "modeling", count=_counter("modeling.trace_distance_calls"))

    # wgen
    p(grammar, "sample", "wgen.sample", "wgen.sample")
    p(grammar, "expand", "wgen.expand", "wgen.synth",
      count=_counter("wgen.expand_calls"), span=False)
    p(synth, "synthesize", "wgen.synthesize", "wgen.synth",
      after=_count_candidates)
    p(synth, "derivation_ops", "wgen.derivation_ops", "wgen.synth",
      span=False)
    p(synth, "normalize_ops", "wgen.normalize_ops", "wgen.synth", span=False)

    # scenario
    p(scenario_build, "build", "scenario.build", "scenario",
      count=_counter("scenario.builds"))
    p(scenario_build, "run_scenario", "scenario.run_scenario", "scenario")
    p(ScenarioSpec, "digest", "scenario.digest", "scenario",
      count=_counter("scenario.digests"))
    p(ScenarioSpec, "canonical_json", "scenario.canonical_json", "scenario",
      count=_counter("scenario.canonical_json_calls"))
    p(ScenarioSpec, "from_dict", "scenario.parse", "scenario")
    p(ScenarioSpec, "from_json", "scenario.parse", "scenario")

    # experiments: the registry dict is what the runner reads.
    if experiments:
        registry = experiments_pkg.ALL_EXPERIMENTS
        for eid in EXPERIMENT_IDS:
            func = registry[eid]
            registry[eid] = tracer._wrap(func, f"experiments.{eid}",
                                         "experiments", None, tracer.timing,
                                         True)
            tracer._undo.append(functools.partial(registry.__setitem__, eid,
                                                  func))

    # jobs + store
    p(jobs_cache, "load_ref_artifact", "jobs.load_ref_artifact", "jobs",
      count=_counter("jobs.lookups"), after=_count_hit)
    p(RunStore, "get", "store.get", "store", count=_count_get)
    p(RunStore, "put", "store.put", "store", count=_counter("store.puts"))
    p(RunStore, "get_ref", "store.get_ref", "store",
      count=_counter("store.ref_reads"))
    p(RunStore, "set_ref", "store.set_ref", "store",
      count=_counter("store.ref_writes"))
    p(RunStore, "verify", "store.verify", "store")

    # service + journal (only exercised inside the server process)
    for attr in ("_admit", "_resolve", "_finish_job", "_write_ledger",
                 "_warm_lookup"):
        p(server.RunService, attr, f"service.{attr.lstrip('_')}", "service",
          span=attr != "_resolve")
    p(JobJournal, "append", "journal.append", "journal",
      count=_counter("journal.appends"), span=False)
    p(JobJournal, "flush", "journal.flush", "journal")
    p(JobJournal, "commit", "journal.commit", "journal")
    return tracer


def _count_get(tracer, args, kwargs):
    tracer.counts["store.gets"] += 1
    store, digest = args[0], _arg(args, kwargs, 1, "digest")
    try:
        tracer.counts["store.get_bytes"] += store.object_path(digest).stat().st_size
    except OSError:
        pass


def _count_hit(tracer, result):
    if result[0] is not None:
        tracer.counts["jobs.hits"] += 1


def _count_candidates(tracer, result):
    tracer.counts["wgen.candidates"] += result.n_candidates


# -- per-layer metrics -------------------------------------------------------------------

def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Sum the additive parts of several processes' snapshots."""
    out = {"self_s": defaultdict(float), "incl_s": defaultdict(float),
           "counts": defaultdict(float)}
    for snap in snapshots:
        for part in out:
            for key, value in snap.get(part, {}).items():
                out[part][key] += value
    return out


def layer_metrics(merged: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Derive the per-layer metric values (names as in ``PER_LAYER``)."""
    s, incl, counts = merged["self_s"], merged["incl_s"], merged["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    events = counts.get("des.events", 0.0)
    m = {
        "des.events": events,
        "des.run_s": incl.get("des.Environment.run", 0.0),
        "des.us_per_event": ratio(s.get("des", 0.0) * 1e6, events),
        "cluster.sends": counts.get("cluster.sends", 0.0),
        "cluster.bytes": counts.get("cluster.bytes", 0.0),
        "cluster.flows": counts.get("cluster.flows", 0.0),
        "cluster.send_s": s.get("cluster", 0.0),
        "pfs.client_ops": counts.get("pfs.client_ops", 0.0),
        "pfs.client_bytes": counts.get("pfs.client_bytes", 0.0),
        "pfs.oss_rpcs": counts.get("pfs.oss_rpcs", 0.0),
        "pfs.oss_bytes": counts.get("pfs.oss_bytes", 0.0),
        "pfs.mds_ops": counts.get("pfs.mds_ops", 0.0),
        "pfs.retries": counts.get("pfs.retries", 0.0),
        "pfs.self_s": s.get("pfs", 0.0),
        "pfs.oss_to_client_bytes": ratio(counts.get("pfs.oss_bytes", 0.0),
                                         counts.get("pfs.client_bytes", 0.0)),
        "iostack.posix_ops": counts.get("iostack.posix_ops", 0.0),
        "iostack.posix_bytes": counts.get("iostack.posix_bytes", 0.0),
        "iostack.collective_calls": counts.get("iostack.collective_calls", 0.0),
        "iostack.pfs_to_posix_bytes": ratio(
            counts.get("pfs.client_bytes", 0.0),
            counts.get("iostack.posix_bytes", 0.0)),
        "iostack.self_s": s.get("iostack", 0.0),
        "mpi.collectives": counts.get("mpi.collectives", 0.0),
        "mpi.self_s": s.get("mpi", 0.0),
        "workloads.ops": counts.get("workloads.ops", 0.0),
        "workloads.self_s": s.get("workloads", 0.0),
        "modeling.fit_s": incl.get("modeling.fit", 0.0),
        "modeling.compress_s": incl.get("modeling.compress_ops", 0.0),
        "modeling.trace_distance_calls":
            counts.get("modeling.trace_distance_calls", 0.0),
        "modeling.trace_distance_s": incl.get("modeling.trace_distance", 0.0),
        "monitoring.records": counts.get("monitoring.records", 0.0),
        "monitoring.features_calls": counts.get("monitoring.features_calls", 0.0),
        "monitoring.self_s": s.get("monitoring", 0.0),
        "wgen.sample_s": incl.get("wgen.sample", 0.0),
        "wgen.candidates": counts.get("wgen.candidates", 0.0),
        "wgen.kept_ratio": ratio(counts.get("wgen.candidates", 0.0),
                                 counts.get("wgen.expand_calls", 0.0)),
        "wgen.synth_self_s": s.get("wgen.synth", 0.0),
        "scenario.builds": counts.get("scenario.builds", 0.0),
        "scenario.build_s": incl.get("scenario.build", 0.0),
        "scenario.digests": counts.get("scenario.digests", 0.0),
        "scenario.digest_s": incl.get("scenario.digest", 0.0),
        "scenario.canonical_json_calls":
            counts.get("scenario.canonical_json_calls", 0.0),
        "scenario.parse_s": incl.get("scenario.parse", 0.0),
        "jobs.lookups": counts.get("jobs.lookups", 0.0),
        "jobs.hit_ratio": ratio(counts.get("jobs.hits", 0.0),
                                counts.get("jobs.lookups", 0.0)),
        "jobs.lookup_s": incl.get("jobs.load_ref_artifact", 0.0),
        "store.gets": counts.get("store.gets", 0.0),
        "store.get_s": incl.get("store.get", 0.0),
        "store.get_bytes": counts.get("store.get_bytes", 0.0),
        "store.puts": counts.get("store.puts", 0.0),
        "store.put_s": incl.get("store.put", 0.0),
        "store.ref_reads": counts.get("store.ref_reads", 0.0),
        "store.ref_writes": counts.get("store.ref_writes", 0.0),
        "service.self_s": s.get("service", 0.0),
        "journal.append_s": incl.get("journal.append", 0.0),
        "journal.commit_wait_s": incl.get("journal.commit", 0.0),
    }
    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}_s"] = incl.get(f"experiments.{eid}", 0.0)
    return m


def simulated_counts(merged) -> Dict[str, float]:
    from common import SIMULATED_COUNTS

    values = layer_metrics(merged)
    return {k: values[k] for k in SIMULATED_COUNTS}


def chrome_trace(snapshots: List[Dict[str, Any]], labels: Dict[int, str]) -> Dict:
    """One Chrome ``trace_event`` document with a track per process."""
    events: List[Dict[str, Any]] = []
    for snap in snapshots:
        pid = snap["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": labels.get(pid, str(pid))}})
        base = snap["origin_wall"] - snap["origin_perf"]
        for name, layer, start, end, parent, rid in snap["spans"]:
            args = {}
            if parent:
                args["parent"] = parent
            if rid is not None:
                args["request"] = rid
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": 0,
                "ts": round((base + start) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            })
    events.sort(key=lambda e: (e.get("ts", 0.0), e["pid"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans_dropped": sum(s.get("spans_dropped", 0) for s in snapshots),
        },
    }


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}
