"""Parallel experiment runner backed by the content-addressed run store.

The reproduction suite (19+ experiments, see
:data:`repro.experiments.ALL_EXPERIMENTS`) was historically run one
experiment at a time in-process.  Every experiment is an independent pure
function of ``(experiment id, seed)``, which makes the suite embarrassingly
parallel and perfectly cacheable:

* **Parallel fan-out** -- :func:`run_experiments` spreads experiment x seed
  tasks over a :class:`~concurrent.futures.ProcessPoolExecutor`.  Tasks are
  enumerated in a deterministic order and results are reassembled in that
  order, so ``--jobs 4`` output is byte-identical to the sequential path.

* **Deterministic per-task seeding** -- before each task (in the worker
  *and* in the sequential fallback) the global ``random`` / ``numpy``
  generators are re-seeded from a hash of ``(experiment id, seed)``.
  Experiments are expected to seed their own RNGs from the ``seed``
  argument; this guard additionally isolates any accidental use of global
  RNG state from execution order, so sequential and parallel runs agree.

* **Store-backed result cache** -- results land in the content-addressed
  :class:`repro.store.RunStore` (default ``results/store``): each record
  becomes an ``experiment_record`` artifact keyed by the SHA-256 of its
  canonical JSON, and a ref ``records/<id>-s<seed>-<source digest16>``
  points the cache key at it.  The source digest hashes every ``.py``
  file of the installed ``repro`` package, so any source change
  invalidates the whole cache while identical outcomes across digests
  still deduplicate to one object.

* **Failure containment** -- a task that raises, or whose worker process
  dies outright, is recorded as a failed result (``RunResult.error``)
  in the run manifest while the rest of the matrix completes; tasks whose
  pool broke are retried once in a fresh pool first (see
  :func:`repro.ioutil.resilient_pool_map`).  A failure is never cached.

* **Self-telemetry and provenance** -- cache outcomes (hit / miss / stale /
  corrupt) are counted in the global metrics registry and logged; a stale
  or corrupt entry is *never* served -- it falls back to re-execution,
  and re-putting the recomputed artifact heals a corrupt object in place.
  Every store-backed invocation lands a run manifest (see
  :func:`repro.telemetry.build_manifest`) and a run document in the store
  (``repro-io store ls`` / ``diff``, ``repro-io telemetry latest``); the
  manifest's tasks reference record artifacts by digest and its host
  metadata is a by-digest artifact reference.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.core.experiment import (
    ExperimentRecord,
    record_from_dict,
    record_payload,  # noqa: F401  (re-export: canonical home is repro.core)
)
from repro.jobs import CachedResult, run_cached, source_digest  # re-exported
from repro.jobs.execution import seed_globals, timed
from repro.store import RunArtifact, RunStore, host_reference
from repro.store.store import DEFAULT_STORE_DIR
from repro.telemetry import TELEMETRY, build_manifest

log = logging.getLogger(__name__)

#: Store location, relative to the caller's working directory by default.
#: (``DEFAULT_CACHE_DIR`` is the historical name, kept as an alias.)
DEFAULT_CACHE_DIR = DEFAULT_STORE_DIR


# -- cache keying ------------------------------------------------------------

def record_ref_name(experiment_id: str, seed: int, digest: str) -> str:
    """Store ref key for one cached (experiment, seed, source digest) task."""
    return f"records/{experiment_id}-s{seed}-{digest[:16]}"


# -- task execution ----------------------------------------------------------

def _execute(task: Tuple[str, int]) -> dict:
    """Run one (experiment id, seed) task; must be module-level (picklable)."""
    from repro.experiments import ALL_EXPERIMENTS

    experiment_id, seed = task
    seed_globals(f"{experiment_id}:{seed}")
    return ALL_EXPERIMENTS[experiment_id](seed=seed).to_dict()


def _execute_timed(task: Tuple[str, int]):
    """Pool task: :func:`_execute` run through :func:`timed`."""
    return timed(_execute, task)


@dataclass
class RunResult(CachedResult):
    """Outcome of one (experiment, seed) task.

    ``record`` is ``None`` exactly when the task failed (worker crash or
    in-task exception); ``error`` then carries a human-readable reason and
    the failure is recorded in the run manifest instead of aborting the
    whole invocation.
    """

    kind = "experiment_record"
    sha_key = "record_sha256"

    experiment_id: str
    seed: int
    record: Optional[ExperimentRecord]
    cached: bool
    seconds: float
    error: Optional[str] = None

    @property
    def value(self) -> Optional[dict]:
        return None if self.record is None else self.record.to_dict()


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Path | str = DEFAULT_STORE_DIR,
    digest: Optional[str] = None,
    manifest: bool = True,
) -> List[RunResult]:
    """Run ``ids`` x ``seeds`` experiment tasks, in parallel when ``jobs > 1``.

    A task that raises -- or whose worker process dies -- becomes a failed
    :class:`RunResult` (``record is None``, ``error`` set, recorded in the
    run manifest, never cached) while every other task still completes.

    Parameters
    ----------
    ids:
        Experiment ids in the order results should be returned
        (default: every registered experiment).  No id may repeat.
    seeds:
        Seeds to run each experiment with.  No seed may repeat.
    jobs:
        Worker process count; ``1`` runs everything in this process.
    use_cache:
        Serve unchanged (id, seed, source digest) tasks from the run
        store and put fresh results back into it.  When false nothing is
        read from or written to ``cache_dir``.
    cache_dir:
        Store root (created on demand; default ``results/store``).
    digest:
        Precomputed :func:`source_digest` (computed when ``None`` and
        ``use_cache``).
    manifest:
        Land this invocation's run manifest and a run document in the
        store (``repro-io store ls/diff``, ``repro-io telemetry latest``).
        Only matters when ``use_cache`` is true.

    Returns
    -------
    Results in deterministic task order (ids outer, seeds inner) --
    independent of completion order and of ``jobs``.
    """
    from repro.experiments import ALL_EXPERIMENTS

    if ids is None:
        ids = list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {unknown}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    for what, values in (("experiment id", list(ids)), ("seed", seeds)):
        repeated = sorted({v for i, v in enumerate(values) if v in values[:i]})
        if repeated:
            raise ValueError(f"repeated {what}(s): {repeated}")
    store = RunStore(cache_dir) if use_cache else None
    wall_start = time.perf_counter()
    tracer = TELEMETRY.tracer if TELEMETRY.active else None

    tasks: List[Tuple[str, int]] = [(eid, seed) for eid in ids for seed in seeds]
    metrics = TELEMETRY.metrics

    if use_cache and digest is None:
        if tracer is not None:
            with tracer.span("source_digest", cat="runner"):
                digest = source_digest()
        else:
            digest = source_digest()

    span_factory = pool_span = None
    if tracer is not None:
        span_factory = lambda task: tracer.span(  # noqa: E731
            "experiment_task", cat="runner",
            experiment=task[0], seed=task[1],
        )
        pool_span = lambda workers, n: tracer.span(  # noqa: E731
            "pool.map", cat="runner", workers=workers, tasks=n,
        )
    outcomes = run_cached(
        tasks, _execute_timed, jobs,
        store=store,
        source_digest=digest,
        ref=lambda task: (
            record_ref_name(task[0], task[1], digest),
            {"experiment_id": task[0], "seed": task[1],
             "source_digest": digest},
        ),
        kind=RunResult.kind,
        decode=record_from_dict,
        fail_label=lambda task: f"experiment task {task[0]}#s{task[1]}",
        span_factory=span_factory,
        pool_span=pool_span,
    )
    cache_counts = {"hits": 0, "fresh": 0, "stale": 0, "corrupt": 0}
    for task, outcome in zip(tasks, outcomes):
        metrics.counter(f"runner.cache.{outcome.status}").inc()
        cache_counts["hits" if outcome.cached else "fresh"] += 1
        if outcome.status in ("stale", "corrupt"):
            cache_counts[outcome.status] += 1
        if use_cache and not outcome.cached and not outcome.failed:
            # Prune refs for the same task keyed on older source digests
            # (their objects stay until ``store gc`` finds them unreachable).
            current = record_ref_name(task[0], task[1], digest)
            for name, _ in store.refs(f"records/{task[0]}-s{task[1]}-*"):
                if name != current:
                    store.delete_ref(name)
    ordered = [
        RunResult(eid, seed, o.value, o.cached, o.seconds, o.error)
        for (eid, seed), o in zip(tasks, outcomes)
    ]
    metrics.counter("runner.tasks.total").inc(len(tasks))
    n_failed = sum(1 for r in ordered if r.failed)
    if n_failed:
        metrics.counter("runner.tasks.failed").inc(n_failed)
        log.warning("%d of %d task(s) failed", n_failed, len(tasks))

    if use_cache and manifest:
        host = host_reference(store)
        doc = build_manifest(
            source_digest=digest,
            ids=ids,
            seeds=seeds,
            jobs=jobs,
            cache_dir=cache_dir,
            use_cache=use_cache,
            tasks=[
                r.manifest_entry(id=r.experiment_id, seed=r.seed)
                for r in ordered
            ],
            cache_counts=cache_counts,
            wall_seconds=time.perf_counter() - wall_start,
            host=host,
        )
        artifacts = {
            f"{r.experiment_id}#s{r.seed}": r.artifact_digest
            for r in ordered
            if not r.failed
        }
        artifacts["host"] = host["artifact"]
        store.add_run(
            "experiment", store.put(RunArtifact.from_run_manifest(doc)),
            artifacts, created=doc["created"],
        )

    return ordered
