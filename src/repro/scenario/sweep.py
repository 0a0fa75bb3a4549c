"""Cartesian parameter sweeps over a base scenario.

The evaluation loops every parallel-I/O paper runs ("for each stripe
count, for each transfer size, ...") become data: :func:`expand_grid`
takes a base :class:`~repro.scenario.spec.ScenarioSpec` and an ordered
``{parameter: [values...]}`` grid and yields one fully-resolved scenario
per grid point, in :func:`itertools.product` order (first key outermost --
matching the nested-loop order a hand-written sweep would use).

Parameters address any layer of the spec:

* dotted paths pin the layer explicitly -- ``platform.n_oss``,
  ``storage.default_stripe_count``, ``stack.cb_nodes``,
  ``workloads.0.n_ranks``, ``workloads.0.params.transfer_size``;
* bare names resolve by layer order: a platform field, else a storage
  field, else a stack field, else a workload field (``n_ranks``/``kind``,
  applied to every workload), else a workload *parameter* applied to every
  workload (so ``stripe_count=4`` reaches each job's config).

:func:`run_sweep` executes the expanded points through
:func:`repro.jobs.run_cached`, the cached-task path the experiment runner
uses too: process-pool fan-out, the content-addressed
:class:`repro.store.RunStore` as the point cache (``sweep_point``
artifacts behind ``sweep/<scenario digest16>-<source digest16>`` refs),
and, for store-backed sweeps, a sweep manifest in the store recording
per-point provenance (overrides, digests, cache status, wall-clock,
artifact address).
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.cluster.spec import PlatformSpec
from repro.jobs import CachedResult, ProgressLedger, run_cached, source_digest
from repro.jobs.execution import seed_globals, timed
from repro.scenario.spec import (
    ScenarioError,
    ScenarioSpec,
    StackSpec,
    StorageSpec,
    WorkloadSpec,
)
from repro.store import RunArtifact, RunStore, host_reference
from repro.store.store import DEFAULT_STORE_DIR

log = logging.getLogger(__name__)

SWEEP_SCHEMA = "repro.scenario.sweep/1"
SWEEP_PROGRESS_NAME = "sweep-progress.json"
SWEEP_PROGRESS_SCHEMA = "repro.scenario.sweep.progress/1"

#: Sweep results live in the same store as the experiment runner's.
DEFAULT_CACHE_DIR = DEFAULT_STORE_DIR

_WORKLOAD_FIELDS = ("kind", "n_ranks")


def _spec_fields(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _replace_workload(w: WorkloadSpec, parts: Sequence[str], value) -> WorkloadSpec:
    if parts and parts[0] == "params":
        if len(parts) != 2:
            raise ScenarioError(
                f"workload params path must be 'params.<name>', got "
                f"{'.'.join(parts)!r}"
            )
        params = dict(w.params)
        params[parts[1]] = value
        return dataclasses.replace(w, params=params)
    if len(parts) == 1 and parts[0] in _WORKLOAD_FIELDS:
        return dataclasses.replace(w, **{parts[0]: value})
    raise ScenarioError(f"unknown workload override path {'.'.join(parts)!r}")


def _apply_one(spec: ScenarioSpec, key: str, value) -> ScenarioSpec:
    parts = key.split(".")
    head = parts[0]

    if len(parts) == 1 and head in ("seed", "concurrent", "name"):
        return spec.replace(**{head: value})

    if head in ("platform", "storage", "stack") and len(parts) == 2:
        sub = getattr(spec, head)
        if parts[1] not in _spec_fields(type(sub)):
            raise ScenarioError(f"{head} has no field {parts[1]!r}")
        return spec.replace(**{head: dataclasses.replace(sub, **{parts[1]: value})})

    if head == "workloads":
        if len(parts) < 3:
            raise ScenarioError(
                f"workload override needs 'workloads.<index>.<field>', got {key!r}"
            )
        try:
            idx = int(parts[1])
            wl = list(spec.workloads)
            wl[idx] = _replace_workload(wl[idx], parts[2:], value)
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"bad workload index in {key!r}: {exc}") from exc
        return spec.replace(workloads=tuple(wl))

    if len(parts) == 1:
        # Bare name: resolve platform -> storage -> stack -> workloads.
        if head in _spec_fields(PlatformSpec):
            return spec.replace(
                platform=dataclasses.replace(spec.platform, **{head: value})
            )
        if head in _spec_fields(StorageSpec):
            return spec.replace(
                storage=dataclasses.replace(spec.storage, **{head: value})
            )
        if head in _spec_fields(StackSpec):
            return spec.replace(
                stack=dataclasses.replace(spec.stack, **{head: value})
            )
        if not spec.workloads:
            raise ScenarioError(
                f"cannot resolve bare parameter {head!r}: no matching spec "
                f"field and the scenario declares no workloads"
            )
        if head in _WORKLOAD_FIELDS:
            wl = [dataclasses.replace(w, **{head: value}) for w in spec.workloads]
        else:
            wl = [
                dataclasses.replace(w, params={**w.params, head: value})
                for w in spec.workloads
            ]
        return spec.replace(workloads=tuple(wl))

    raise ScenarioError(f"unknown override path {key!r}")


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Return ``spec`` with every override applied (spec is not mutated)."""
    for key, value in overrides.items():
        spec = _apply_one(spec, key, value)
    return spec


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def point_name(base: ScenarioSpec, overrides: Mapping[str, Any]) -> str:
    """Human-readable point label, e.g. ``a3-ior/stripe_count=4,transfer_size=1048576``."""
    pairs = ",".join(
        f"{k.rsplit('.', 1)[-1]}={_fmt_value(v)}" for k, v in overrides.items()
    )
    return f"{base.name}/{pairs}" if pairs else base.name


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point."""

    name: str
    #: The flat override mapping that produced this point.
    overrides: Dict[str, Any]
    scenario: ScenarioSpec


def expand_grid(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[SweepPoint]:
    """Expand the cartesian product of ``grid`` over ``base``.

    Iteration order is :func:`itertools.product` over the grid's key
    order: the first key is the outermost loop.  Every point is validated;
    an invalid combination fails the whole expansion (before anything
    runs).  An axis that repeats a value (as its point label shows it,
    so ``2`` and ``2.0`` are one value) would run one point twice under
    one name, and is rejected.
    """
    if not grid:
        return [SweepPoint(base.name, {}, base.validate())]
    keys = list(grid)
    empty = [k for k in keys if not list(grid[k])]
    if empty:
        raise ScenarioError(f"empty value list for sweep parameter(s): {empty}")
    for key in keys:
        labels = [_fmt_value(v) for v in grid[key]]
        repeated = sorted({v for i, v in enumerate(labels) if v in labels[:i]})
        if repeated:
            raise ScenarioError(
                f"sweep parameter {key!r} repeats value(s): {repeated}"
            )
    points: List[SweepPoint] = []
    for combo in itertools.product(*(list(grid[k]) for k in keys)):
        overrides = dict(zip(keys, combo))
        name = point_name(base, overrides)
        spec = apply_overrides(base, overrides).replace(name=name)
        points.append(SweepPoint(name, overrides, spec.validate()))
    return points


# -- execution ---------------------------------------------------------------

@dataclass
class SweepResult(CachedResult):
    """Outcome of one sweep point.

    ``outcome`` is ``None`` exactly when the point failed (worker crash or
    in-point exception); ``error`` then carries the reason and the failure
    is recorded in the sweep manifest and the progress ledger.
    """

    kind = "sweep_point"
    sha_key = "result_sha256"

    point: SweepPoint
    #: :meth:`repro.scenario.build.ScenarioRun.to_dict` payload.
    outcome: Optional[Dict[str, Any]]
    cached: bool
    seconds: float
    error: Optional[str] = None

    @property
    def value(self) -> Optional[Dict[str, Any]]:
        return self.outcome


def _execute_point(scenario_json: str) -> Dict[str, Any]:
    """Run one scenario (module-level: picklable for the process pool)."""
    from repro.scenario.build import run_scenario

    spec = ScenarioSpec.from_json(scenario_json)
    seed_globals(spec.digest())
    return run_scenario(spec).to_dict()


def _execute_point_timed(scenario_json: str):
    """Pool task: :func:`_execute_point` run through :func:`timed`."""
    return timed(_execute_point, scenario_json)


def point_ref_name(scenario_digest: str, source_digest: str) -> str:
    """Store ref key for one cached (scenario, source digest) point."""
    return f"sweep/{scenario_digest[:16]}-{source_digest[:16]}"


def point_ref(scenario_digest: str, source_digest: str):
    """``(ref name, ref meta)`` of one cached point: :func:`point_ref_name`
    and the keying fields stamped on the ref."""
    return point_ref_name(scenario_digest, source_digest), {
        "scenario_digest": scenario_digest,
        "source_digest": source_digest,
    }


def run_sweep(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Union[Path, str] = DEFAULT_CACHE_DIR,
) -> List[SweepResult]:
    """Run every grid point of a sweep, in parallel when ``jobs > 1``.

    Points are executed through :func:`repro.scenario.build.run_scenario`
    on worker processes and cached in the content-addressed run store
    keyed by ``(scenario digest, source digest)`` -- the same invalidation
    discipline as the experiment runner: any source change re-runs
    everything, an unchanged point is a store read.  Results come back in
    grid order regardless of ``jobs``.

    A point that raises -- or whose worker process dies -- becomes a
    failed :class:`SweepResult` (``outcome is None``, ``error`` set, never
    cached) while the remaining points still run.

    Live progress goes to ``<cache_dir>/../sweep-progress.json`` (flushed
    after the cache scan, on every point completion and at finish) for
    ``repro-io watch``.  Store-backed sweeps (``use_cache``) land a sweep
    manifest (schema ``repro.scenario.sweep/1``) and a run document in the
    store (``repro-io store ls/diff``, ``repro-io telemetry latest``): for
    every point, the overrides, the scenario digest, cache status,
    wall-clock seconds and the point's artifact address.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    points = expand_grid(base, grid)
    cache_dir = Path(cache_dir)
    store = RunStore(cache_dir) if use_cache else None
    wall_start = time.perf_counter()
    src_digest = source_digest() if use_cache else None

    progress = ProgressLedger(
        cache_dir.parent / SWEEP_PROGRESS_NAME, SWEEP_PROGRESS_SCHEMA,
        (p.name for p in points), extra={"sweep": base.name, "jobs": jobs},
    )

    def scanned(outcomes) -> None:
        for point, outcome in zip(points, outcomes):
            if outcome.cached:
                progress.mark_cached(point.name)
        progress.write()

    outcomes = run_cached(
        points, _execute_point_timed, jobs,
        store=store,
        source_digest=src_digest,
        ref=lambda point: point_ref(point.scenario.digest(), src_digest),
        kind=SweepResult.kind,
        payload=lambda point: point.scenario.canonical_json(),
        fail_label=lambda point: f"sweep point {point.name!r}",
        on_scanned=scanned,
        on_outcome=lambda point, o: progress.mark_done(
            point.name, o.seconds, o.error
        ),
    )
    ordered = [
        SweepResult(point, o.value, o.cached, o.seconds, o.error)
        for point, o in zip(points, outcomes)
    ]

    if use_cache:
        host = host_reference(store)
        doc = {
            "schema": SWEEP_SCHEMA,
            "created": time.time(),
            "base_scenario": base.name,
            "base_digest": base.digest(),
            "source_digest": src_digest,
            "grid": {k: list(v) for k, v in grid.items()},
            "jobs": jobs,
            "use_cache": use_cache,
            "cache_dir": str(cache_dir),
            "points": [
                r.manifest_entry(
                    name=r.point.name,
                    overrides=dict(r.point.overrides),
                    scenario_digest=r.point.scenario.digest(),
                )
                for r in ordered
            ],
            "wall_seconds": time.perf_counter() - wall_start,
            "host": host,
        }
        artifacts = {
            r.point.name: r.artifact_digest for r in ordered if not r.failed
        }
        artifacts["host"] = host["artifact"]
        store.add_run(
            "sweep", store.put(RunArtifact.from_sweep_manifest(doc)),
            artifacts, created=doc["created"],
        )
    progress.write(finished=True)

    return ordered
